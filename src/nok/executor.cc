#include "nok/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "nok/bp_cursor.h"
#include "nok/logical_matcher.h"
#include "nok/physical_matcher.h"

namespace nok {

namespace {

/// True iff `outer` has a related member of the sorted `inners` set
/// (Dewey containment; equivalent to the interval condition and always
/// available, so arc predicates use it in both join modes).
bool AnyRelated(const NodeMatch& outer, const std::vector<NodeMatch>& inners,
                Axis axis) {
  if (inners.empty()) return false;
  if (axis == Axis::kDescendant) {
    if (outer.virtual_root) return true;
    auto it = std::upper_bound(inners.begin(), inners.end(), outer,
                               DocOrderLess);
    return it != inners.end() &&
           IsRelated(outer, *it, Axis::kDescendant, JoinMode::kDewey);
  }
  if (outer.virtual_root) return false;
  if (axis == Axis::kFollowing) {
    // The document-order-last inner is the canonical witness.
    return IsRelated(outer, inners.back(), Axis::kFollowing,
                     JoinMode::kDewey);
  }
  // Preceding: scan inners from the front past the outer's ancestors.
  for (const NodeMatch& inner : inners) {
    if (!DocOrderLess(inner, outer)) break;
    if (IsRelated(outer, inner, Axis::kPreceding, JoinMode::kDewey)) {
      return true;
    }
  }
  return false;
}

/// Cursor wrapper that additionally enforces global-arc constraints: a
/// pattern node with an outgoing arc only matches subject nodes that
/// have a qualified child-tree root in the arc's relation.  Injecting the
/// arcs into the NoK match keeps witness selection sound (Algorithm 1
/// picks per-node witnesses; a binding-level post-filter could not).
/// Templated over the base cursor so both navigation tiers (paged
/// StoreCursor and balanced-parentheses BpCursor) share it.
template <typename BaseCursor>
class ConstrainedCursorT {
 public:
  using NodeT = typename BaseCursor::NodeT;

  struct ArcConstraint {
    Axis axis;
    const std::vector<NodeMatch>* qualified_roots;  // Sorted.
  };

  explicit ConstrainedCursorT(BaseCursor* base) : base_(base) {}

  void AddConstraint(const PatternNode* pattern, ArcConstraint constraint) {
    constraints_[pattern].push_back(constraint);
  }

  Result<std::optional<NodeT>> FirstChild(const NodeT& node) {
    return base_->FirstChild(node);
  }
  Result<std::optional<NodeT>> FollowingSibling(const NodeT& node) {
    return base_->FollowingSibling(node);
  }

  Result<bool> Matches(const NodeT& node, const PatternNode& pattern) {
    NOK_ASSIGN_OR_RETURN(bool ok, base_->Matches(node, pattern));
    if (!ok) return false;
    auto it = constraints_.find(&pattern);
    if (it == constraints_.end()) return true;
    NodeMatch as_match;
    as_match.virtual_root = node.virtual_root;
    if (!node.virtual_root) as_match.dewey = node.dewey;
    for (const ArcConstraint& constraint : it->second) {
      if (!AnyRelated(as_match, *constraint.qualified_roots,
                      constraint.axis)) {
        return false;
      }
    }
    return true;
  }

 private:
  BaseCursor* base_;
  std::unordered_map<const PatternNode*, std::vector<ArcConstraint>>
      constraints_;
};

/// A standalone sub-NoK-tree with its index mapping and designations.
struct SubMatcherData {
  NokTree sub;
  std::vector<int> map;            // Sub index -> original local index.
  std::vector<bool> designated;    // Over sub indexes.
  bool collects = false;           // Any designated node inside?
};

SubMatcherData MakeSub(const NokTree& tree, int local,
                       const std::vector<bool>& designated) {
  SubMatcherData data;
  data.sub = ExtractNokSubtree(tree, local, &data.map);
  data.designated.resize(data.sub.nodes.size());
  for (size_t i = 0; i < data.map.size(); ++i) {
    data.designated[i] = designated[static_cast<size_t>(data.map[i])];
    data.collects = data.collects || data.designated[i];
  }
  return data;
}

/// Whether the tree uses sibling-order constraints anywhere (the anchored
/// evaluator bails out to whole-tree matching for those).
bool HasSiblingOrder(const NokTree& tree) {
  for (const NokNode& node : tree.nodes) {
    if (!node.sibling_order.empty()) return true;
  }
  return false;
}

/// Plan-time resolved tag of a pattern node (see ResolvePatternTags).
TagId ResolvedTag(const std::vector<TagId>& tag_table,
                  const PatternNode* p) {
  const size_t id = static_cast<size_t>(p->id);
  return id < tag_table.size() ? tag_table[id] : kInvalidTag;
}

/// Wall-clock + subject-tree-page accounting for one operator.
class OpTimer {
 public:
  explicit OpTimer(DocumentStore* store)
      : store_(store),
        pages_before_(store->tree()->nav_stats().pages_scanned),
        start_(std::chrono::steady_clock::now()) {}

  void Finish(OperatorStats* op) const {
    op->pages =
        store_->tree()->nav_stats().pages_scanned - pages_before_;
    op->seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  }

 private:
  DocumentStore* store_;
  uint64_t pages_before_;
  std::chrono::steady_clock::time_point start_;
};

/// One global-arc predicate whose source node lies on the anchored
/// trunk: the source's subject Dewey ID is a fixed prefix of the anchor
/// candidate's, so the arc can be checked per candidate with a sorted
/// merge before any page is fetched — the SemiJoinFilter operator.  The
/// same AnyRelated test runs again inside ConstrainedCursorT::Matches
/// during NokMatch, so pruning here never changes results, only cost.
struct TrunkArcCheck {
  size_t trunk_index = 0;  ///< Position of the source node on the trunk.
  bool source_is_doc_root = false;
  Axis axis = Axis::kDescendant;
  const std::vector<NodeMatch>* inners = nullptr;  ///< Sorted.
};

/// The trunk (root..anchor chain) arc checks for one tree; empty when no
/// outgoing arc's source sits on the trunk.  The arc into `exempt_tree`
/// (the child whose roots produced the candidates, or -1) needs no check.
std::vector<TrunkArcCheck> TrunkArcChecks(
    const NokPartition& partition, const NokTree& tree, int tree_id,
    int anchor, int exempt_tree, size_t* trunk_len,
    const std::vector<std::vector<NodeMatch>>& qualified_roots) {
  std::vector<int> trunk;
  const std::vector<int> parents = NokParents(tree);
  for (int n = anchor; n >= 0; n = parents[static_cast<size_t>(n)]) {
    trunk.push_back(n);
  }
  std::reverse(trunk.begin(), trunk.end());
  *trunk_len = trunk.size();
  std::vector<TrunkArcCheck> checks;
  for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
    if (arc->to_tree == exempt_tree) continue;
    for (size_t j = 0; j < trunk.size(); ++j) {
      if (trunk[j] != arc->from_node) continue;
      TrunkArcCheck check;
      check.trunk_index = j;
      check.source_is_doc_root =
          tree.nodes[static_cast<size_t>(trunk[j])].pattern->is_doc_root;
      check.axis = arc->axis;
      check.inners =
          &qualified_roots[static_cast<size_t>(arc->to_tree)];
      checks.push_back(check);
      break;
    }
  }
  return checks;
}

/// Whether an anchor candidate passes depth feasibility and every trunk
/// arc check (see TrunkArcCheck; both conditions are re-verified during
/// matching, so filtering on this is a pure pre-filter).
bool PassesTrunkChecks(const NokTree& tree, size_t trunk_len,
                       const std::vector<TrunkArcCheck>& checks,
                       const DeweyId& dewey) {
  const bool doc_root = tree.root_is_doc_root;
  const size_t depth = dewey.depth();
  if (doc_root) {
    if (depth != trunk_len - 1) return false;
  } else if (depth < trunk_len) {
    return false;
  }
  for (const TrunkArcCheck& check : checks) {
    NodeMatch as_match;
    if (check.source_is_doc_root) {
      as_match.virtual_root = true;
    } else {
      const size_t subject_depth =
          doc_root ? check.trunk_index
                   : depth - (trunk_len - 1) + check.trunk_index;
      auto ancestor = dewey.Ancestor(depth - subject_depth);
      NOK_CHECK(ancestor.has_value());
      as_match.dewey = std::move(*ancestor);
    }
    if (!AnyRelated(as_match, *check.inners, check.axis)) return false;
  }
  return true;
}

/// Arc checks for whole-tree evaluation: only arcs whose source is the
/// NoK root itself apply (the candidates are exactly the root's subject
/// nodes); the root of a floating tree is never the virtual doc root.
struct RootArcCheck {
  Axis axis = Axis::kDescendant;
  const std::vector<NodeMatch>* inners = nullptr;  ///< Sorted.
};

std::vector<RootArcCheck> RootArcChecks(
    const NokPartition& partition, int tree_id, int exempt_tree,
    const std::vector<std::vector<NodeMatch>>& qualified_roots) {
  std::vector<RootArcCheck> checks;
  for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
    if (arc->from_node != 0 || arc->to_tree == exempt_tree) continue;
    checks.push_back(RootArcCheck{
        arc->axis, &qualified_roots[static_cast<size_t>(arc->to_tree)]});
  }
  return checks;
}

bool PassesRootChecks(const DeweyId& dewey,
                      const std::vector<RootArcCheck>& checks) {
  NodeMatch as_match;
  as_match.dewey = dewey;
  for (const RootArcCheck& check : checks) {
    if (!AnyRelated(as_match, *check.inners, check.axis)) return false;
  }
  return true;
}

/// Index hits for one access path (the probe operators' body; shared by
/// both navigation backends — index probes never touch tree pages).
Result<std::vector<DocumentStore::IndexedNode>> FetchHits(
    DocumentStore* store, const AccessPath& access) {
  std::vector<DocumentStore::IndexedNode> hits;
  switch (access.strategy) {
    case StartStrategy::kValueIndex:
      return store->NodesWithValue(Slice(access.value_operand));
    case StartStrategy::kTagIndex:
      if (access.tag == kInvalidTag) return hits;  // Absent tag: empty.
      return store->NodesWithTag(access.tag);
    case StartStrategy::kPathIndex:
      if (access.tag_path.empty()) return hits;  // Unknown path: empty.
      return store->NodesWithPath(access.tag_path);
    case StartStrategy::kAuto:
    case StartStrategy::kScan:
      break;
  }
  return Status::Internal("access path has no index probe");
}

// ---------------------------------------------------------------------
// Navigation backends.  A backend bundles one physical cursor with the
// executor's candidate-production primitives, all expressed against that
// cursor's node handle:
//
//   ToMatch        NodeT -> NodeMatch (interval endpoints in kInterval
//                  mode come from the backend's own numbering);
//   NodeForHit     index hit -> NodeT (its stored position while
//                  positions are fresh, else its Dewey ID);
//   Ancestor       NodeT -> its ancestor a given number of levels up
//                  (trunk verification, arc-ancestor candidates);
//   ScanCandidates the AnchorScan operator's body;
//   ScanWithin     one span of the ScopedScan operator: the opens with a
//                  tag strictly inside one node's subtree;
//   LocateAll      candidate Dewey IDs -> NodeTs (the stale-positions
//                  path).
//
// PagedNav navigates the paged string store (BufferPool traffic, counted
// in NavStats::pages_scanned); BpNav navigates the in-memory balanced-
// parentheses index (no page access at all, counted in bp_steps).

/// Sorts nodes into document order and drops duplicates (by Dewey ID).
template <typename NodeT>
void SortUniqueNodes(std::vector<NodeT>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const NodeT& a, const NodeT& b) {
              return a.dewey.Compare(b.dewey) < 0;
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end(),
                           [](const NodeT& a, const NodeT& b) {
                             return a.dewey == b.dewey;
                           }),
               nodes->end());
}

/// Dewey IDs `up` levels above each hit (hits that shallow have none).
std::vector<DeweyId> AncestorDeweys(
    const std::vector<DocumentStore::IndexedNode>& hits, size_t up) {
  std::vector<DeweyId> out;
  out.reserve(hits.size());
  for (const auto& hit : hits) {
    auto ancestor = hit.dewey.Ancestor(up);
    if (ancestor.has_value()) out.push_back(std::move(*ancestor));
  }
  return out;
}

/// Paged-string backend: the original navigation tier.
class PagedNav {
 public:
  using Cursor = StoreCursor;
  using NodeT = StoreCursor::NodeT;

  explicit PagedNav(DocumentStore* store) : store_(store), cursor_(store) {}

  Cursor* cursor() { return &cursor_; }

  /// NodeT -> NodeMatch (interval endpoints are global byte positions).
  Result<NodeMatch> ToMatch(const NodeT& node, JoinMode mode) {
    NodeMatch match;
    if (node.virtual_root) {
      match.virtual_root = true;
      return match;
    }
    match.dewey = node.dewey;
    if (mode == JoinMode::kInterval) {
      match.start = store_->tree()->GlobalPos(node.pos);
      NOK_ASSIGN_OR_RETURN(match.end,
                           store_->tree()->SubtreeEndGlobal(node.pos));
    }
    return match;
  }

  /// Physical node for an index hit: its stored position while positions
  /// are fresh, else a B+i lookup of its Dewey ID.
  Result<NodeT> NodeForHit(const DocumentStore::IndexedNode& hit) {
    if (!store_->positions_fresh()) return cursor_.NodeAt(hit.dewey);
    NOK_ASSIGN_OR_RETURN(StorePos pos, store_->tree()->PosForGlobal(hit.pos));
    return NodeT{pos, hit.dewey, false};
  }

  /// Ancestor `up` levels above a node: one B+i lookup of its Dewey
  /// prefix (the paged string has no cheap PARENT step), memoized for the
  /// query, so an ancestor resolved once (a span root, an arc-ancestor
  /// candidate, a trunk node) costs no second lookup.
  Result<NodeT> Ancestor(const NodeT& node, size_t up) {
    if (up == 0) return node;
    std::optional<DeweyId> dewey = node.dewey.Ancestor(up);
    if (!dewey.has_value()) {
      return Status::Internal("climbed above the document root");
    }
    const auto known = located_.find(*dewey);
    if (known != located_.end()) {
      return NodeT{known->second, *std::move(dewey), false};
    }
    NOK_ASSIGN_OR_RETURN(NodeT found, cursor_.NodeAt(*dewey));
    located_.emplace(std::move(*dewey), found.pos);
    return found;
  }

  /// All document nodes whose tag satisfies the NoK root's name test,
  /// via a sequential scan of the string store (the "naive" strategy).
  /// `want` is the root pattern's resolved tag (kInvalidTag for a name
  /// absent from the document).  Selective tags take the fused
  /// NextOpenWithTag path: the scan consults the per-page tag summaries
  /// and Dewey IDs are derived only for the hits.
  Result<std::vector<NodeT>> ScanCandidates(const PatternNode& root_pattern,
                                            TagId want) {
    std::vector<NodeT> out;
    StringStore* tree = store_->tree();
    if (!root_pattern.wildcard && want == kInvalidTag) {
      return out;  // Tag absent: no matches anywhere.
    }

    // Fused path for a selective tag test: phase A enumerates hit
    // positions with NextOpenWithTag, a single tag-filtered chain scan
    // that skips pages via the per-page summaries (no child counting, so
    // skipping is sound); phase B derives Dewey IDs only for the hits.
    // A frequent tag would gain nothing from the filter while phase B
    // re-navigates per hit, so it keeps the counter scan below, as do
    // wildcards.
    if (!root_pattern.wildcard &&
        store_->CountTag(want) * 2 <= store_->stats().node_count) {
      std::vector<StorePos> hits;
      StorePos pos = tree->RootPos();
      NOK_ASSIGN_OR_RETURN(TagId root_tag, tree->TagAt(pos));
      if (root_tag == want) hits.push_back(pos);
      for (;;) {
        NOK_ASSIGN_OR_RETURN(auto next, tree->NextOpenWithTag(pos, want));
        if (!next.has_value()) break;
        pos = *next;
        hits.push_back(pos);
      }
      return DeweysForHits(NodeT{tree->RootPos(), DeweyId::Root(), false},
                           hits);
    }

    // Single forward scan; Dewey IDs are derived from the level sequence.
    std::vector<uint32_t> child_counter(
        static_cast<size_t>(tree->max_level()) + 2, 0);
    std::vector<uint32_t> path;
    std::optional<StorePos> pos = tree->RootPos();
    while (pos.has_value()) {
      NOK_ASSIGN_OR_RETURN(int level, tree->LevelAt(*pos));
      NOK_ASSIGN_OR_RETURN(TagId tag, tree->TagAt(*pos));
      const size_t l = static_cast<size_t>(level);
      path.resize(l);
      path[l - 1] = child_counter[l]++;
      child_counter[l + 1] = 0;
      if (root_pattern.wildcard || tag == want) {
        out.push_back(NodeT{*pos, DeweyId(std::vector<uint32_t>(path)),
                            false});
      }
      NOK_ASSIGN_OR_RETURN(auto next, tree->NextOpen(*pos));
      pos = next;
    }
    return out;
  }

  /// The opens tagged `want` strictly inside top's subtree, in document
  /// order: a tag-filtered chain scan that stops at top's close.
  Result<std::vector<NodeT>> ScanWithin(const NodeT& top, TagId want) {
    StringStore* tree = store_->tree();
    const int level = static_cast<int>(top.dewey.depth());
    std::vector<StorePos> hits;
    StorePos pos = top.pos;
    for (;;) {
      NOK_ASSIGN_OR_RETURN(auto next,
                           tree->NextOpenWithTagInSubtree(pos, want, level));
      if (!next.has_value()) break;
      pos = *next;
      hits.push_back(pos);
    }
    return DeweysForHits(top, hits);
  }

  /// Converts sorted candidate Dewey IDs to physical nodes, reusing the
  /// navigation path across consecutive candidates (the slow path used
  /// when stored positions are stale).
  Result<std::vector<NodeT>> LocateAll(std::vector<DeweyId> deweys) {
    std::sort(deweys.begin(), deweys.end(),
              [](const DeweyId& a, const DeweyId& b) {
                return a.Compare(b) < 0;
              });
    deweys.erase(std::unique(deweys.begin(), deweys.end()), deweys.end());

    std::vector<NodeT> out;
    out.reserve(deweys.size());
    StringStore* tree = store_->tree();

    // Navigation cache: path[i] = (component value, position) of the node
    // currently reached at depth i+1.  Consecutive sorted Dewey IDs share
    // long prefixes, so most steps resume from the cached path.
    struct PathEntry {
      uint32_t component;
      StorePos pos;
    };
    std::vector<PathEntry> cached;

    for (const DeweyId& dewey : deweys) {
      const auto& comp = dewey.components();
      if (comp.empty() || comp[0] != 0) {
        return Status::InvalidArgument("bad Dewey ID " + dewey.ToString());
      }
      // Longest usable prefix of the cached path: components equal,
      // except the last reusable level may be <= (we can walk right, not
      // left).
      size_t keep = 0;
      while (keep < cached.size() && keep < comp.size() &&
             cached[keep].component == comp[keep]) {
        ++keep;
      }
      bool resume_sideways = false;
      if (keep < cached.size() && keep < comp.size() && keep > 0 &&
          cached[keep].component < comp[keep]) {
        resume_sideways = true;  // Continue right from cached[keep].
      }
      cached.resize(keep + (resume_sideways ? 1 : 0));

      bool missing = false;
      if (cached.empty()) {
        cached.push_back(PathEntry{0, tree->RootPos()});
      }
      for (;;) {
        PathEntry& last = cached.back();
        const size_t level = cached.size();  // 1-based depth reached.
        if (last.component < comp[level - 1]) {
          // Walk right to the desired sibling.
          NOK_ASSIGN_OR_RETURN(auto sibling,
                               tree->FollowingSibling(last.pos));
          if (!sibling.has_value()) {
            missing = true;
            break;
          }
          last.pos = *sibling;
          ++last.component;
          continue;
        }
        if (level == comp.size()) break;  // Arrived.
        // Descend.
        NOK_ASSIGN_OR_RETURN(auto child, tree->FirstChild(last.pos));
        if (!child.has_value()) {
          missing = true;
          break;
        }
        cached.push_back(PathEntry{0, *child});
      }
      if (missing) {
        return Status::Corruption("index references missing node " +
                                  dewey.ToString());
      }
      out.push_back(NodeT{cached.back().pos, dewey, false});
    }
    return out;
  }

 private:
  /// Dewey IDs for tag-scan hit positions (ascending, all inside top's
  /// subtree): an interval-guided descent from top that reuses the
  /// navigation path across consecutive hits.
  Result<std::vector<NodeT>> DeweysForHits(const NodeT& top,
                                           const std::vector<StorePos>& hits) {
    std::vector<NodeT> out;
    if (hits.empty()) return out;
    out.reserve(hits.size());
    StringStore* tree = store_->tree();

    // Interval-guided descent.  The stack holds the path from top to the
    // node most recently visited: (child index, position, subtree-end
    // global).  For each hit (ascending), entries whose subtree ends
    // before the hit are popped, and the walk resumes from the shallowest
    // popped sibling — so each level's sibling chain is traversed at most
    // once across all hits.  Top itself is never popped.
    struct PathEntry {
      uint32_t component;
      StorePos pos;
      uint64_t end;
    };
    const std::vector<uint32_t>& top_components = top.dewey.components();
    NOK_ASSIGN_OR_RETURN(uint64_t top_end, tree->SubtreeEndGlobal(top.pos));
    std::vector<PathEntry> stack = {
        PathEntry{top_components.back(), top.pos, top_end}};
    std::vector<uint32_t> components(top_components.begin(),
                                     top_components.end() - 1);
    const size_t base = components.size();

    for (const StorePos& hit : hits) {
      const uint64_t g = tree->GlobalPos(hit);
      std::optional<PathEntry> resume;
      while (stack.size() > 1 && stack.back().end < g) {
        resume = stack.back();
        stack.pop_back();
      }
      while (tree->GlobalPos(stack.back().pos) != g) {
        // Step down one level to the child whose interval contains g.
        PathEntry child{0, StorePos{}, 0};
        if (resume.has_value()) {
          NOK_ASSIGN_OR_RETURN(auto sib,
                               tree->FollowingSibling(resume->pos));
          if (!sib.has_value()) {
            return Status::Corruption("scan hit outside every sibling");
          }
          child.component = resume->component + 1;
          child.pos = *sib;
          resume.reset();
        } else {
          NOK_ASSIGN_OR_RETURN(auto first,
                               tree->FirstChild(stack.back().pos));
          if (!first.has_value()) {
            return Status::Corruption("scan hit below a leaf");
          }
          child.pos = *first;
        }
        for (;;) {
          if (tree->GlobalPos(child.pos) > g) {
            return Status::Corruption("scan hit between sibling subtrees");
          }
          NOK_ASSIGN_OR_RETURN(child.end,
                               tree->SubtreeEndGlobal(child.pos));
          if (g <= child.end) break;
          NOK_ASSIGN_OR_RETURN(auto sib,
                               tree->FollowingSibling(child.pos));
          if (!sib.has_value()) {
            return Status::Corruption("scan hit outside every sibling");
          }
          child.pos = *sib;
          ++child.component;
        }
        stack.push_back(child);
      }
      components.resize(base);
      for (const PathEntry& entry : stack) {
        components.push_back(entry.component);
      }
      out.push_back(NodeT{hit, DeweyId(std::vector<uint32_t>(components)),
                          false});
    }
    return out;
  }

  DocumentStore* store_;
  StoreCursor cursor_;
  std::map<DeweyId, StorePos> located_;  ///< Ancestor's memo.
};

/// Balanced-parentheses backend: every primitive runs on the in-memory
/// BpIndex — candidate scans over the SWAR tag array, Dewey derivation
/// and trunk verification over the bitvector — so the access path
/// touches zero subject-tree pages.  Navigation work is counted into
/// NavStats::bp_steps / bp_tag_blocks_skipped.
class BpNav {
 public:
  using Cursor = BpCursor;
  using NodeT = BpCursor::NodeT;

  BpNav(DocumentStore* store, const BpIndex* bp)
      : store_(store), bp_(bp), cursor_(store, bp) {}

  Cursor* cursor() { return &cursor_; }

  /// NodeT -> NodeMatch.  In kInterval mode the endpoints are BP bit
  /// positions: a document-order numbering with subtree containment,
  /// which is all the interval containment test needs — and both
  /// endpoints come straight from the bitvector (FindClose).
  Result<NodeMatch> ToMatch(const NodeT& node, JoinMode mode) {
    NodeMatch match;
    if (node.virtual_root) {
      match.virtual_root = true;
      return match;
    }
    match.dewey = node.dewey;
    if (mode == JoinMode::kInterval) {
      match.start = node.pos;
      match.end = bp_->FindClose(node.pos);
    }
    return match;
  }

  /// Node handle for an index hit.  While positions are fresh, the hit's
  /// global position is the rank of its open symbol in chain order
  /// (StringStore::SymbolRank, header arithmetic), and the BP string has
  /// one bit per symbol in the same order, so that rank is its open bit:
  /// one step, no walk.  A rank that is not an open at the hit's depth
  /// means the headers or the index are damaged.  Stale positions fall
  /// back to the prefix-cached Dewey walk.
  Result<NodeT> NodeForHit(const DocumentStore::IndexedNode& hit) {
    if (!store_->positions_fresh()) return NodeAt(hit.dewey);
    NOK_ASSIGN_OR_RETURN(uint64_t bit, store_->tree()->SymbolRank(hit.pos));
    store_->tree()->BumpBpSteps(1);
    if (bit >= bp_->bit_count() || !bp_->IsOpen(bit) ||
        static_cast<size_t>(bp_->Depth(bit)) != hit.dewey.depth()) {
      return Status::Corruption(
          "index position " + std::to_string(hit.pos) + " of " +
          hit.dewey.ToString() + " maps to BP bit " + std::to_string(bit) +
          ", which is not an open at that depth");
    }
    return NodeT{bit, hit.dewey, false};
  }

  /// Ancestor `up` levels above a node: one Enclose per level.
  Result<NodeT> Ancestor(const NodeT& node, size_t up) {
    if (up == 0) return node;
    std::optional<DeweyId> dewey = node.dewey.Ancestor(up);
    if (!dewey.has_value()) {
      return Status::Internal("climbed above the document root");
    }
    uint64_t pos = node.pos;
    for (size_t i = 0; i < up; ++i) {
      const auto parent = bp_->Enclose(pos);
      if (!parent.has_value()) {
        return Status::Corruption("BP node " + node.dewey.ToString() +
                                  " has fewer ancestors than its depth");
      }
      pos = *parent;
    }
    store_->tree()->BumpBpSteps(up);
    return NodeT{pos, *std::move(dewey), false};
  }

  /// AnchorScan over the BP index.  Mirrors the paged heuristic: a
  /// selective tag takes the fused SWAR path (64-node blocks without the
  /// tag dismissed in 16 word compares, Dewey IDs derived only for the
  /// hits); frequent tags and wildcards take one sequential pass over
  /// the raw bits, which yields every open's Dewey ID inline.
  Result<std::vector<NodeT>> ScanCandidates(const PatternNode& root_pattern,
                                            TagId want) {
    std::vector<NodeT> out;
    if (!root_pattern.wildcard && want == kInvalidTag) {
      return out;  // Tag absent: no matches anywhere.
    }
    if (bp_->node_count() == 0) return out;
    StringStore* tree = store_->tree();

    if (!root_pattern.wildcard &&
        store_->CountTag(want) * 2 <= store_->stats().node_count) {
      const NodeT root{0, DeweyId::Root(), false};
      if (bp_->TagAt(0) == want) out.push_back(root);
      NOK_ASSIGN_OR_RETURN(std::vector<NodeT> below, ScanWithin(root, want));
      out.insert(out.end(), std::make_move_iterator(below.begin()),
                 std::make_move_iterator(below.end()));
      return out;
    }

    // One pass over the raw bits: the running depth and per-level child
    // counters give every open's Dewey ID with no rank/select calls.
    std::vector<uint32_t> child_counter(
        static_cast<size_t>(tree->max_level()) + 2, 0);
    std::vector<uint32_t> path;
    uint64_t rank = 0;
    size_t level = 0;
    const uint64_t n_bits = bp_->bit_count();
    for (uint64_t pos = 0; pos < n_bits; ++pos) {
      if (!bp_->IsOpen(pos)) {
        --level;
        continue;
      }
      ++level;
      path.resize(level);
      path[level - 1] = child_counter[level]++;
      child_counter[level + 1] = 0;
      const TagId tag = bp_->TagAtRank(rank++);
      if (root_pattern.wildcard || tag == want) {
        out.push_back(NodeT{pos, DeweyId(std::vector<uint32_t>(path)),
                            false});
      }
    }
    tree->BumpBpSteps(bp_->node_count());
    return out;
  }

  /// The opens tagged `want` strictly inside top's subtree, in document
  /// order: the SWAR tag scan bounded by top's close bit.
  Result<std::vector<NodeT>> ScanWithin(const NodeT& top, TagId want) {
    const uint64_t end = bp_->FindClose(top.pos);
    std::vector<uint64_t> hits;
    uint64_t blocks_skipped = 0;
    uint64_t pos = top.pos;
    for (;;) {
      const auto next = bp_->NextOpenWithTag(pos, want, &blocks_skipped, end);
      if (!next.has_value()) break;
      pos = *next;
      hits.push_back(pos);
    }
    store_->tree()->BumpBpSteps(hits.size());
    store_->tree()->BumpBpTagBlocksSkipped(blocks_skipped);
    return DeweysForHits(top, hits);
  }

  /// Candidate Dewey IDs -> BP nodes via the prefix-cached walk.
  Result<std::vector<NodeT>> LocateAll(std::vector<DeweyId> deweys) {
    std::sort(deweys.begin(), deweys.end(),
              [](const DeweyId& a, const DeweyId& b) {
                return a.Compare(b) < 0;
              });
    deweys.erase(std::unique(deweys.begin(), deweys.end()), deweys.end());
    std::vector<NodeT> out;
    out.reserve(deweys.size());
    for (DeweyId& dewey : deweys) {
      NOK_ASSIGN_OR_RETURN(auto pos, WalkTo(dewey));
      if (!pos.has_value()) {
        return Status::Corruption("index references missing node " +
                                  dewey.ToString());
      }
      out.push_back(NodeT{*pos, std::move(dewey), false});
    }
    return out;
  }

 private:
  struct PathEntry {
    uint32_t component;
    uint64_t pos;
  };

  /// Open position for one Dewey ID, or nullopt when the document has no
  /// such node.  The cached root..current path persists across calls;
  /// the reuse logic matches PagedNav::LocateAll (equal prefix, resume
  /// rightward at the first divergence when possible).
  Result<std::optional<uint64_t>> WalkTo(const DeweyId& dewey) {
    const auto& comp = dewey.components();
    if (comp.empty() || comp[0] != 0) {
      return Status::InvalidArgument("bad Dewey ID " + dewey.ToString());
    }
    if (bp_->node_count() == 0) return std::optional<uint64_t>();
    size_t keep = 0;
    while (keep < cached_.size() && keep < comp.size() &&
           cached_[keep].component == comp[keep]) {
      ++keep;
    }
    bool resume_sideways = false;
    if (keep < cached_.size() && keep < comp.size() && keep > 0 &&
        cached_[keep].component < comp[keep]) {
      resume_sideways = true;  // Continue right from cached_[keep].
    }
    cached_.resize(keep + (resume_sideways ? 1 : 0));

    uint64_t steps = 0;
    if (cached_.empty()) {
      cached_.push_back(PathEntry{0, 0});
      ++steps;
    }
    bool missing = false;
    for (;;) {
      PathEntry& last = cached_.back();
      const size_t level = cached_.size();  // 1-based depth reached.
      if (last.component < comp[level - 1]) {
        ++steps;
        const auto sibling = bp_->FollowingSibling(last.pos);
        if (!sibling.has_value()) {
          missing = true;
          break;
        }
        last.pos = *sibling;
        ++last.component;
        continue;
      }
      if (level == comp.size()) break;  // Arrived.
      ++steps;
      const auto child = bp_->FirstChild(last.pos);
      if (!child.has_value()) {
        missing = true;
        break;
      }
      cached_.push_back(PathEntry{0, *child});
    }
    store_->tree()->BumpBpSteps(steps);
    if (missing) return std::optional<uint64_t>();
    return std::optional<uint64_t>(cached_.back().pos);
  }

  /// Dewey IDs for SWAR-scan hit positions (ascending, all inside top's
  /// subtree): the interval-guided descent of PagedNav::DeweysForHits,
  /// with subtree-end globals replaced by FindClose — one bitvector probe
  /// instead of a page read.
  Result<std::vector<NodeT>> DeweysForHits(const NodeT& top,
                                           const std::vector<uint64_t>& hits) {
    std::vector<NodeT> out;
    if (hits.empty()) return out;
    out.reserve(hits.size());
    struct StackEntry {
      uint32_t component;
      uint64_t pos;
      uint64_t end;
    };
    const std::vector<uint32_t>& top_components = top.dewey.components();
    std::vector<StackEntry> stack = {
        StackEntry{top_components.back(), top.pos, bp_->FindClose(top.pos)}};
    std::vector<uint32_t> components(top_components.begin(),
                                     top_components.end() - 1);
    const size_t base = components.size();
    uint64_t steps = 0;

    for (const uint64_t hit : hits) {
      std::optional<StackEntry> resume;
      while (stack.size() > 1 && stack.back().end < hit) {
        resume = stack.back();
        stack.pop_back();
      }
      while (stack.back().pos != hit) {
        StackEntry child{0, 0, 0};
        if (resume.has_value()) {
          ++steps;
          const auto sib = bp_->FollowingSibling(resume->pos);
          if (!sib.has_value()) {
            return Status::Corruption("scan hit outside every sibling");
          }
          child.component = resume->component + 1;
          child.pos = *sib;
          resume.reset();
        } else {
          ++steps;
          const auto first = bp_->FirstChild(stack.back().pos);
          if (!first.has_value()) {
            return Status::Corruption("scan hit below a leaf");
          }
          child.pos = *first;
        }
        for (;;) {
          if (child.pos > hit) {
            return Status::Corruption("scan hit between sibling subtrees");
          }
          child.end = bp_->FindClose(child.pos);
          if (hit <= child.end) break;
          ++steps;
          const auto sib = bp_->FollowingSibling(child.pos);
          if (!sib.has_value()) {
            return Status::Corruption("scan hit outside every sibling");
          }
          child.pos = *sib;
          ++child.component;
        }
        stack.push_back(child);
      }
      components.resize(base);
      for (const StackEntry& entry : stack) {
        components.push_back(entry.component);
      }
      out.push_back(NodeT{hit, DeweyId(std::vector<uint32_t>(components)),
                          false});
    }
    store_->tree()->BumpBpSteps(steps);
    return out;
  }

  /// Node handle for one Dewey ID via the prefix-cached walk.
  Result<NodeT> NodeAt(const DeweyId& dewey) {
    NOK_ASSIGN_OR_RETURN(auto pos, WalkTo(dewey));
    if (!pos.has_value()) {
      return Status::Corruption("index references missing node " +
                                dewey.ToString());
    }
    return NodeT{*pos, dewey, false};
  }

  DocumentStore* store_;
  const BpIndex* bp_;
  BpCursor cursor_;
  std::vector<PathEntry> cached_;
};

/// Index hits -> nodes in document order without duplicates: each hit by
/// its stored position (Nav::NodeForHit) while positions are fresh, else
/// LocateAll's prefix-cached walk over the sorted Dewey IDs.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> ResolveHits(
    DocumentStore* store, Nav* nav,
    const std::vector<DocumentStore::IndexedNode>& hits) {
  if (!store->positions_fresh()) {
    return nav->LocateAll(AncestorDeweys(hits, 0));
  }
  std::vector<typename Nav::NodeT> out;
  out.reserve(hits.size());
  for (const auto& hit : hits) {
    NOK_ASSIGN_OR_RETURN(auto node, nav->NodeForHit(hit));
    out.push_back(std::move(node));
  }
  SortUniqueNodes(&out);
  return out;
}

/// Anchored evaluation of one NoK tree (Section 6.2 realized): the index
/// supplies candidate matches of the anchor node; the trunk (anchor ->
/// tree root) is verified against the anchor's ancestors; branch subtrees
/// hang off trunk nodes and are matched one level down; the anchor's own
/// subtree is matched in full.  Every trunk edge is a child axis, so the
/// subject ancestors are exactly the Dewey prefixes -- no search needed.
/// Templated over the navigation backend: the caller resolves the anchor
/// (Nav::NodeForHit for an index hit; arc-ancestor candidates arrive
/// resolved) and each ancestor is the Nav::Ancestor one level above the
/// node below it (an Enclose in bp mode, a B+i lookup in paged mode),
/// except the ancestors the previous candidate shares, which are reused.
template <typename Nav>
class AnchoredMatcherT {
 public:
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;

  AnchoredMatcherT(Nav* nav, CCursor* cursor, const NokTree& tree,
                   const std::vector<bool>& designated, int anchor,
                   JoinMode join_mode)
      : nav_(nav),
        cursor_(cursor),
        tree_(tree),
        designated_(designated),
        join_mode_(join_mode) {
    // Trunk chain root..anchor.
    const std::vector<int> parents = NokParents(tree);
    for (int n = anchor; n >= 0; n = parents[static_cast<size_t>(n)]) {
      trunk_.push_back(n);
    }
    std::reverse(trunk_.begin(), trunk_.end());
    // Branch data per trunk node (children except the trunk successor).
    branches_.resize(trunk_.size());
    for (size_t j = 0; j + 1 < trunk_.size(); ++j) {
      for (int child : tree.nodes[static_cast<size_t>(trunk_[j])].children) {
        if (child == trunk_[j + 1]) continue;
        branches_[j].push_back(MakeSub(tree, child, designated));
      }
    }
    anchor_sub_ = MakeSub(tree, anchor, designated);
  }

  /// Depth feasibility of an anchor: for rooted trees the anchor's
  /// document depth is fixed; for floating trees it only has a minimum.
  bool DepthFeasible(size_t depth) const {
    return tree_.root_is_doc_root ? depth == trunk_.size() - 1
                                  : depth >= trunk_.size();
  }

  /// The subject of the tree root in the last successful match (floating
  /// trees only; a rooted tree's root is the virtual document root).
  const NodeT& root() const { return by_depth_[memo_top_]; }

  /// Matches one candidate anchor node; returns the binding when the
  /// whole tree matches around it.
  Result<std::optional<NokBinding>> MatchCandidate(const NodeT& anchor) {
    const size_t trunk_len = trunk_.size();
    if (!DepthFeasible(anchor.dewey.depth())) {
      return std::optional<NokBinding>();
    }

    NOK_RETURN_IF_ERROR(ResolveTrunk(anchor));
    NokBinding binding;
    binding.matches.resize(tree_.nodes.size());

    for (size_t j = 0; j < trunk_len; ++j) {
      const int local = trunk_[j];
      const PatternNode* pattern =
          tree_.nodes[static_cast<size_t>(local)].pattern;
      if (pattern->is_doc_root) {
        NodeMatch virtual_match;
        virtual_match.virtual_root = true;
        binding.matches[static_cast<size_t>(local)].push_back(
            virtual_match);
        continue;
      }
      const NodeT& node = by_depth_[SubjectDepth(anchor, j)];

      if (j + 1 == trunk_len) {
        // The anchor: match its whole pattern subtree.
        NokMatcher<CCursor> matcher(&anchor_sub_.sub, cursor_,
                                    anchor_sub_.designated);
        typename NokMatcher<CCursor>::MatchLists lists(
            anchor_sub_.sub.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(node, &lists));
        if (!ok) return std::optional<NokBinding>();
        NOK_RETURN_IF_ERROR(Merge(anchor_sub_, lists, &binding));
        continue;
      }

      // Inner trunk node: own constraints + branch subtrees.
      NOK_ASSIGN_OR_RETURN(bool ok, cursor_->Matches(node, *pattern));
      if (!ok) return std::optional<NokBinding>();
      if (designated_[static_cast<size_t>(local)]) {
        NOK_ASSIGN_OR_RETURN(NodeMatch match,
                             nav_->ToMatch(node, join_mode_));
        binding.matches[static_cast<size_t>(local)].push_back(
            std::move(match));
      }
      if (!branches_[j].empty()) {
        NOK_ASSIGN_OR_RETURN(bool branch_ok,
                             MatchBranches(node, branches_[j], &binding));
        if (!branch_ok) return std::optional<NokBinding>();
      }
    }
    for (auto& list : binding.matches) SortUnique(&list);
    return std::optional<NokBinding>(std::move(binding));
  }

 private:
  /// Document depth of the subject node at trunk level j: trunk edges are
  /// child axes, so the levels occupy consecutive depths ending at the
  /// anchor.
  size_t SubjectDepth(const NodeT& anchor, size_t j) const {
    return anchor.dewey.depth() - (trunk_.size() - 1 - j);
  }

  /// Fills by_depth_ with the anchor and its trunk ancestors, bottom-up.
  /// Candidates arrive in Dewey order, so the ancestors this one shares
  /// with the previous candidate (depths within their common Dewey prefix
  /// that the previous trunk reached) are already there; every other
  /// ancestor is the parent of the one below it.
  Status ResolveTrunk(const NodeT& anchor) {
    const size_t depth = anchor.dewey.depth();
    const size_t top = SubjectDepth(anchor, tree_.root_is_doc_root ? 1 : 0);
    size_t shared = 0;
    if (memo_depth_ > 0) {
      const auto& a = anchor.dewey.components();
      const auto& b = by_depth_[memo_depth_].dewey.components();
      while (shared < a.size() && shared < b.size() &&
             a[shared] == b[shared]) {
        ++shared;
      }
    }
    if (by_depth_.size() <= depth) by_depth_.resize(depth + 1);
    const size_t memo_top = memo_top_;
    memo_depth_ = 0;  // Empty until this trunk is whole.
    for (size_t d = depth; d >= top; --d) {
      if (d <= shared && d >= memo_top) continue;
      if (d == depth) {
        by_depth_[d] = anchor;
      } else {
        NOK_ASSIGN_OR_RETURN(by_depth_[d],
                             nav_->Ancestor(by_depth_[d + 1], 1));
      }
    }
    memo_top_ = top;
    memo_depth_ = depth;
    return Status::OK();
  }

  /// Merges a sub-matcher's lists into the binding via the index map.
  Status Merge(const SubMatcherData& sub,
               const typename NokMatcher<CCursor>::MatchLists& lists,
               NokBinding* binding) {
    for (size_t i = 0; i < lists.size(); ++i) {
      for (const NodeT& node : lists[i]) {
        NOK_ASSIGN_OR_RETURN(NodeMatch match,
                             nav_->ToMatch(node, join_mode_));
        binding->matches[static_cast<size_t>(sub.map[i])].push_back(
            std::move(match));
      }
    }
    return Status::OK();
  }

  /// One level of Algorithm 1: every branch must match some child of
  /// `parent`; branches that collect designated matches keep matching all
  /// children.
  Result<bool> MatchBranches(const NodeT& parent,
                             std::vector<SubMatcherData>& branches,
                             NokBinding* binding) {
    const size_t n = branches.size();
    std::vector<char> satisfied(n, 0);
    size_t remaining = n;
    size_t collecting = 0;
    for (const SubMatcherData& b : branches) collecting += b.collects;

    NOK_ASSIGN_OR_RETURN(auto u, cursor_->FirstChild(parent));
    while (u.has_value() && (remaining > 0 || collecting > 0)) {
      for (size_t i = 0; i < n; ++i) {
        if (satisfied[i] && !branches[i].collects) continue;
        NokMatcher<CCursor> matcher(&branches[i].sub, cursor_,
                                    branches[i].designated);
        typename NokMatcher<CCursor>::MatchLists lists(
            branches[i].sub.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(*u, &lists));
        if (!ok) continue;
        NOK_RETURN_IF_ERROR(Merge(branches[i], lists, binding));
        if (!satisfied[i]) {
          satisfied[i] = 1;
          --remaining;
        }
      }
      NOK_ASSIGN_OR_RETURN(auto next, cursor_->FollowingSibling(*u));
      u = next;
    }
    return remaining == 0;
  }

  Nav* nav_;
  CCursor* cursor_;
  const NokTree& tree_;
  const std::vector<bool>& designated_;
  JoinMode join_mode_;
  std::vector<int> trunk_;
  std::vector<std::vector<SubMatcherData>> branches_;
  SubMatcherData anchor_sub_;
  /// Trunk nodes of the last resolved candidate, indexed by document
  /// depth; valid over [memo_top_, memo_depth_] (none while depth is 0).
  std::vector<NodeT> by_depth_;
  size_t memo_top_ = 0;
  size_t memo_depth_ = 0;
};

const char* ProbeOpName(StartStrategy strategy) {
  switch (strategy) {
    case StartStrategy::kTagIndex:
      return "TagIndexProbe";
    case StartStrategy::kValueIndex:
      return "ValueIndexProbe";
    case StartStrategy::kPathIndex:
      return "PathIndexProbe";
    case StartStrategy::kAuto:
    case StartStrategy::kScan:
      break;
  }
  return "AnchorScan";
}

/// The SemiJoinFilter operator: keeps the rows that pass `keep` (every
/// applicable arc check) and records the pruning in the trace.
template <typename Row, typename Keep>
void FilterRows(DocumentStore* store, int tree_id, size_t arcs,
                std::vector<Row>* rows, Keep keep, ExecutionTrace* trace) {
  OperatorStats filter;
  filter.op = "SemiJoinFilter";
  filter.tree = tree_id;
  filter.detail = "arcs=" + std::to_string(arcs);
  filter.rows_in = rows->size();
  OpTimer timer(store);
  rows->erase(std::remove_if(rows->begin(), rows->end(),
                             [&](const Row& row) { return !keep(row); }),
              rows->end());
  filter.rows_out = rows->size();
  timer.Finish(&filter);
  trace->operators.push_back(std::move(filter));
}

/// True iff `prefix` is an ancestor of `id` or `id` itself.
bool IsAncestorOrSelf(const DeweyId& prefix, const DeweyId& id) {
  const auto& p = prefix.components();
  const auto& c = id.components();
  return p.size() <= c.size() && std::equal(p.begin(), p.end(), c.begin());
}

/// Index hits -> their ancestors `up` levels higher, in document order
/// without duplicates: while positions are fresh, each hit's node
/// climbed by the backend's Ancestor; otherwise the Dewey walk of
/// LocateAll.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> LocateAncestors(
    DocumentStore* store, Nav* nav,
    const std::vector<DocumentStore::IndexedNode>& hits, size_t up) {
  if (!store->positions_fresh()) {
    return nav->LocateAll(AncestorDeweys(hits, up));
  }
  std::vector<typename Nav::NodeT> out;
  out.reserve(hits.size());
  for (const auto& hit : hits) {
    if (hit.dewey.depth() <= up) continue;
    NOK_ASSIGN_OR_RETURN(auto node, nav->NodeForHit(hit));
    NOK_ASSIGN_OR_RETURN(node, nav->Ancestor(node, up));
    out.push_back(std::move(node));
  }
  SortUniqueNodes(&out);
  return out;
}

/// Span roots of an arc-scoped scan (the down direction): the subjects of
/// the scope's span node, `up` levels above the parent tree's depth-
/// feasible probe hits, in document order.  A root inside an earlier
/// root's subtree is dropped, since that subtree is scanned already.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> SpanRoots(
    DocumentStore* store, Nav* nav, const NokTree& parent, int anchor,
    const ArcScope& scope,
    const std::vector<DocumentStore::IndexedNode>& hits) {
  // Depth feasibility as in AnchoredMatcherT::DepthFeasible.
  const size_t anchor_depth = static_cast<size_t>(parent.DepthOf(anchor));
  std::vector<DocumentStore::IndexedNode> feasible;
  for (const auto& hit : hits) {
    const size_t depth = hit.dewey.depth();
    if (parent.root_is_doc_root ? depth == anchor_depth - 1
                                : depth >= anchor_depth) {
      feasible.push_back(hit);
    }
  }
  NOK_ASSIGN_OR_RETURN(std::vector<typename Nav::NodeT> roots,
                       LocateAncestors(store, nav, feasible, scope.up));
  size_t kept = 0;
  for (size_t i = 0; i < roots.size(); ++i) {
    if (kept > 0 && IsAncestorOrSelf(roots[kept - 1].dewey, roots[i].dewey)) {
      continue;
    }
    if (kept != i) roots[kept] = std::move(roots[i]);
    ++kept;
  }
  roots.resize(kept);
  return roots;
}

/// Candidates of an arc-ancestor anchor (the up direction): the proper
/// ancestors of the child tree's qualified roots at the depths the arc
/// source can take, in document order without duplicates.  A rooted
/// tree fixes that depth, so each root yields at most one candidate and
/// the anchored matcher tests its tag; a floating tree takes every
/// ancestor deep enough whose subject passes the source's own tests.
/// Roots arrive sorted, so the ancestors a root shares with the previous
/// root were visited for that one already.
template <typename Nav>
Result<std::vector<typename Nav::NodeT>> ArcAncestorCandidates(
    Nav* nav, const NokTree& tree, int source,
    const std::vector<typename Nav::NodeT>& roots) {
  using NodeT = typename Nav::NodeT;
  const size_t source_depth = static_cast<size_t>(tree.DepthOf(source));
  const bool rooted = tree.root_is_doc_root;
  const size_t min_depth = rooted ? source_depth - 1 : source_depth;
  const PatternNode& pattern =
      *tree.nodes[static_cast<size_t>(source)].pattern;
  std::vector<NodeT> out;
  const NodeT* prev = nullptr;
  for (const NodeT& root : roots) {
    const size_t depth = root.dewey.depth();
    size_t shared = 0;  // Ancestors at depth <= shared are visited.
    if (prev != nullptr) {
      const auto& a = root.dewey.components();
      const auto& b = prev->dewey.components();
      const size_t limit = std::min(a.size(), b.size() - 1);
      while (shared < limit && a[shared] == b[shared]) ++shared;
    }
    prev = &root;
    if (rooted) {
      if (depth <= min_depth || min_depth <= shared) continue;
      NOK_ASSIGN_OR_RETURN(NodeT node, nav->Ancestor(root, depth - min_depth));
      out.push_back(std::move(node));
      continue;
    }
    NodeT node = root;
    for (size_t d = depth; d-- > std::max(min_depth, shared + 1);) {
      NOK_ASSIGN_OR_RETURN(node, nav->Ancestor(node, 1));
      NOK_ASSIGN_OR_RETURN(bool ok, nav->cursor()->Matches(node, pattern));
      if (ok) out.push_back(node);
    }
  }
  SortUniqueNodes(&out);
  return out;
}

/// The plan-execution body, templated over the navigation backend; the
/// control flow is identical across backends, so results are too.
template <typename Nav>
Result<std::vector<DeweyId>> RunImpl(DocumentStore* store, Nav* nav,
                                     const QueryPlan& plan,
                                     const NokPartition& partition,
                                     const std::vector<TagId>& tag_table,
                                     const QueryOptions& options,
                                     QueryStats* stats,
                                     ExecutionTrace* trace) {
  using NodeT = typename Nav::NodeT;
  using CCursor = ConstrainedCursorT<typename Nav::Cursor>;
  using IndexedNode = DocumentStore::IndexedNode;

  NOK_CHECK(stats != nullptr && trace != nullptr);
  const size_t n_trees = partition.trees.size();
  NOK_CHECK(plan.trees.size() == n_trees &&
            plan.schedule.size() == n_trees)
      << "plan does not fit the partition";
  *stats = QueryStats{};
  stats->trees.resize(n_trees);
  trace->operators.clear();

  nav->cursor()->set_tag_table(&tag_table);
  CCursor cursor(nav->cursor());

  // NoK matching per tree in plan order — always children before parents
  // (checked below), with each evaluated arc injected into the parent's
  // matching as a node predicate.
  std::vector<std::vector<NokBinding>> bindings(n_trees);
  std::vector<std::vector<NodeMatch>> qualified_roots(n_trees);
  std::vector<char> evaluated(n_trees, 0);
  // Qualified root nodes, kept for the trees an arc-ancestor anchor
  // climbs from.
  std::vector<std::vector<NodeT>> root_nodes(n_trees);
  std::vector<char> feeds_up(n_trees, 0);
  for (const TreeAccessPlan& tree_plan : plan.trees) {
    if (tree_plan.access.arc_tree >= 0) {
      feeds_up[static_cast<size_t>(tree_plan.access.arc_tree)] = 1;
    }
  }
  // Index hits per tree, fetched once: an arc-scoped scan fetches its
  // parent's hits before the parent runs, and the parent reuses them.
  std::vector<std::optional<std::vector<IndexedNode>>> probe_hits(n_trees);
  auto take_probe = [&](int tree_id) -> Result<std::vector<IndexedNode>*> {
    std::optional<std::vector<IndexedNode>>& slot =
        probe_hits[static_cast<size_t>(tree_id)];
    if (!slot.has_value()) {
      const AccessPath& access =
          plan.trees[static_cast<size_t>(tree_id)].access;
      OperatorStats probe;
      probe.op = ProbeOpName(access.strategy);
      probe.tree = tree_id;
      probe.detail = access.display;
      probe.has_estimate = true;
      probe.estimated = access.cardinality.candidates;
      OpTimer probe_timer(store);
      NOK_ASSIGN_OR_RETURN(slot, FetchHits(store, access));
      probe.rows_out = slot->size();
      probe_timer.Finish(&probe);
      trace->operators.push_back(std::move(probe));
    }
    return &*slot;
  };
  // The ArcAncestors operator: candidates of an arc-ancestor anchor.
  auto arc_ancestors = [&](int tree_id) -> Result<std::vector<NodeT>> {
    const AccessPath& access =
        plan.trees[static_cast<size_t>(tree_id)].access;
    const std::vector<NodeT>& roots =
        root_nodes[static_cast<size_t>(access.arc_tree)];
    OperatorStats op;
    op.op = "ArcAncestors";
    op.tree = tree_id;
    op.detail = access.display + " anchor=node" + std::to_string(access.anchor);
    op.has_estimate = true;
    op.estimated = access.cardinality.candidates;
    op.rows_in = roots.size();
    OpTimer timer(store);
    NOK_ASSIGN_OR_RETURN(
        std::vector<NodeT> out,
        ArcAncestorCandidates(nav,
                              partition.trees[static_cast<size_t>(tree_id)],
                              access.anchor, roots));
    op.rows_out = out.size();
    timer.Finish(&op);
    trace->operators.push_back(std::move(op));
    return out;
  };

  for (const int tree_id : plan.schedule) {
    const size_t t = static_cast<size_t>(tree_id);
    const NokTree& tree = partition.trees[t];
    const AccessPath& access = plan.trees[t].access;
    QueryStats::TreeStats& tree_stats = stats->trees[t];
    const std::vector<bool> designated =
        ComputeDesignated(partition, tree_id);
    tree_stats.strategy = access.strategy;
    for (const GlobalArc* arc : partition.ArcsFrom(tree_id)) {
      NOK_CHECK(evaluated[static_cast<size_t>(arc->to_tree)])
          << "plan schedule is not children-first";
    }

    const bool anchored =
        (access.strategy != StartStrategy::kScan || access.arc_tree >= 0) &&
        access.anchor != 0 && !HasSiblingOrder(tree);

    if (anchored) {
      // Anchored evaluation from index hits or arc-ancestor candidates.
      size_t trunk_len = 0;
      const std::vector<TrunkArcCheck> checks =
          plan.cost_based
              ? TrunkArcChecks(partition, tree, tree_id, access.anchor,
                               access.arc_tree, &trunk_len, qualified_roots)
              : std::vector<TrunkArcCheck>();
      std::vector<IndexedNode>* hits = nullptr;
      std::vector<NodeT> anchors;
      if (access.arc_tree >= 0) {
        NOK_ASSIGN_OR_RETURN(anchors, arc_ancestors(tree_id));
        if (!checks.empty()) {
          FilterRows(store, tree_id, checks.size(), &anchors,
                     [&](const NodeT& node) {
                       return PassesTrunkChecks(tree, trunk_len, checks,
                                                node.dewey);
                     },
                     trace);
        }
        tree_stats.candidates = anchors.size();
      } else {
        NOK_ASSIGN_OR_RETURN(hits, take_probe(tree_id));
        if (!checks.empty()) {
          FilterRows(store, tree_id, checks.size(), hits,
                     [&](const IndexedNode& hit) {
                       return PassesTrunkChecks(tree, trunk_len, checks,
                                                hit.dewey);
                     },
                     trace);
        }
        tree_stats.candidates = hits->size();
        std::sort(hits->begin(), hits->end(),
                  [](const IndexedNode& a, const IndexedNode& b) {
                    return a.dewey.Compare(b.dewey) < 0;
                  });
        hits->erase(std::unique(hits->begin(), hits->end(),
                                [](const IndexedNode& a,
                                   const IndexedNode& b) {
                                  return a.dewey == b.dewey;
                                }),
                    hits->end());
      }

      OperatorStats match;
      match.op = "NokMatch";
      match.tree = tree_id;
      match.detail = "anchored";
      match.has_estimate = true;
      match.estimated = access.cardinality.matches;
      match.rows_in = hits != nullptr ? hits->size() : anchors.size();
      OpTimer match_timer(store);
      AnchoredMatcherT<Nav> matcher(nav, &cursor, tree, designated,
                                    access.anchor, options.join_mode);
      auto match_anchor = [&](const NodeT& anchor) -> Status {
        NOK_ASSIGN_OR_RETURN(auto binding, matcher.MatchCandidate(anchor));
        if (!binding.has_value()) return Status::OK();
        if (feeds_up[t]) root_nodes[t].push_back(matcher.root());
        qualified_roots[t].push_back(binding->matches[0].front());
        bindings[t].push_back(std::move(*binding));
        return Status::OK();
      };
      if (hits != nullptr) {
        for (const IndexedNode& hit : *hits) {
          if (!matcher.DepthFeasible(hit.dewey.depth())) continue;
          NOK_ASSIGN_OR_RETURN(NodeT anchor, nav->NodeForHit(hit));
          NOK_RETURN_IF_ERROR(match_anchor(anchor));
        }
      } else {
        for (const NodeT& anchor : anchors) {
          NOK_RETURN_IF_ERROR(match_anchor(anchor));
        }
      }
      match.rows_out = bindings[t].size();
      match_timer.Finish(&match);
      trace->operators.push_back(std::move(match));
    } else {
      // Whole-tree matching from root candidates.
      std::vector<NodeT> candidates;
      const std::vector<RootArcCheck> root_checks =
          plan.cost_based && !tree.root_is_doc_root
              ? RootArcChecks(partition, tree_id, access.arc_tree,
                              qualified_roots)
              : std::vector<RootArcCheck>();
      auto filter_candidates = [&] {
        if (root_checks.empty()) return;
        FilterRows(store, tree_id, root_checks.size(), &candidates,
                   [&](const NodeT& node) {
                     return PassesRootChecks(node.dewey, root_checks);
                   },
                   trace);
      };
      if (tree.root_is_doc_root) {
        OperatorStats scan;
        scan.op = "AnchorScan";
        scan.tree = tree_id;
        scan.detail = "root=(doc-root)";
        scan.has_estimate = true;
        scan.estimated = 1;
        scan.rows_out = 1;
        candidates.push_back(nav->cursor()->VirtualRoot());
        trace->operators.push_back(std::move(scan));
      } else if (access.arc_tree >= 0) {
        // Arc source at the root: its candidates are the roots.
        NOK_ASSIGN_OR_RETURN(candidates, arc_ancestors(tree_id));
        filter_candidates();
      } else if (access.strategy == StartStrategy::kScan &&
                 access.scope.tree >= 0) {
        // Arc-scoped scan: only inside the parent's probe spans.
        const ArcScope& scope = access.scope;
        const size_t p = static_cast<size_t>(scope.tree);
        NOK_ASSIGN_OR_RETURN(std::vector<IndexedNode>* parent_hits,
                             take_probe(scope.tree));
        OperatorStats scan;
        scan.op = "ScopedScan";
        scan.tree = tree_id;
        scan.has_estimate = true;
        scan.estimated = access.cardinality.candidates;
        OpTimer scan_timer(store);
        NOK_ASSIGN_OR_RETURN(
            std::vector<NodeT> spans,
            SpanRoots(store, nav, partition.trees[p],
                      plan.trees[p].access.anchor, scope, *parent_hits));
        for (const NodeT& span : spans) {
          NOK_ASSIGN_OR_RETURN(std::vector<NodeT> inside,
                               nav->ScanWithin(span, access.tag));
          candidates.insert(candidates.end(),
                            std::make_move_iterator(inside.begin()),
                            std::make_move_iterator(inside.end()));
        }
        scan.detail =
            access.display + " spans=" + std::to_string(spans.size());
        scan.rows_in = spans.size();
        scan.rows_out = candidates.size();
        scan_timer.Finish(&scan);
        trace->operators.push_back(std::move(scan));
        filter_candidates();
      } else if (access.strategy == StartStrategy::kScan) {
        OperatorStats scan;
        scan.op = "AnchorScan";
        scan.tree = tree_id;
        scan.detail = access.display;
        scan.has_estimate = true;
        scan.estimated = access.cardinality.candidates;
        OpTimer scan_timer(store);
        NOK_ASSIGN_OR_RETURN(
            candidates,
            nav->ScanCandidates(
                *tree.nodes[0].pattern,
                ResolvedTag(tag_table, tree.nodes[0].pattern)));
        scan.rows_out = candidates.size();
        scan_timer.Finish(&scan);
        trace->operators.push_back(std::move(scan));
        filter_candidates();
      } else {
        NOK_ASSIGN_OR_RETURN(std::vector<IndexedNode>* hits,
                             take_probe(tree_id));
        if (access.anchor == 0) {
          if (!root_checks.empty()) {
            FilterRows(store, tree_id, root_checks.size(), hits,
                       [&](const IndexedNode& hit) {
                         return PassesRootChecks(hit.dewey, root_checks);
                       },
                       trace);
          }
          NOK_ASSIGN_OR_RETURN(candidates, ResolveHits(store, nav, *hits));
        } else {
          // Index hits below the root but ordering constraints force a
          // whole-tree match: map the hits up to candidate roots.
          const int depth = tree.DepthOf(access.anchor);
          NOK_ASSIGN_OR_RETURN(
              candidates,
              LocateAncestors(store, nav, *hits,
                              static_cast<size_t>(depth - 1)));
        }
      }
      tree_stats.candidates = candidates.size();

      OperatorStats match;
      match.op = "NokMatch";
      match.tree = tree_id;
      match.detail = "whole-tree";
      match.has_estimate = true;
      match.estimated = access.cardinality.matches;
      match.rows_in = candidates.size();
      OpTimer match_timer(store);
      NokMatcher<CCursor> matcher(&tree, &cursor, designated);
      for (const NodeT& start : candidates) {
        typename NokMatcher<CCursor>::MatchLists lists(tree.nodes.size());
        NOK_ASSIGN_OR_RETURN(bool ok, matcher.Match(start, &lists));
        if (!ok) continue;
        NokBinding binding;
        binding.matches.resize(tree.nodes.size());
        for (size_t i = 0; i < lists.size(); ++i) {
          for (const NodeT& node : lists[i]) {
            NOK_ASSIGN_OR_RETURN(NodeMatch node_match,
                                 nav->ToMatch(node, options.join_mode));
            binding.matches[i].push_back(std::move(node_match));
          }
          SortUnique(&binding.matches[i]);
        }
        if (feeds_up[t]) root_nodes[t].push_back(start);
        qualified_roots[t].push_back(binding.matches[0].front());
        bindings[t].push_back(std::move(binding));
      }
      match.rows_out = bindings[t].size();
      match_timer.Finish(&match);
      trace->operators.push_back(std::move(match));
    }
    tree_stats.bindings = bindings[t].size();
    SortUnique(&qualified_roots[t]);
    SortUniqueNodes(&root_nodes[t]);
    evaluated[t] = 1;

    // Make this tree's qualified roots a predicate on its parent arc's
    // source node.
    const GlobalArc* arc = partition.ArcInto(tree_id);
    if (arc != nullptr) {
      const NokTree& parent_tree =
          partition.trees[static_cast<size_t>(arc->from_tree)];
      const PatternNode* source =
          parent_tree.nodes[static_cast<size_t>(arc->from_node)].pattern;
      cursor.AddConstraint(
          source, typename CCursor::ArcConstraint{arc->axis,
                                                  &qualified_roots[t]});
    }
  }

  // Top-down: a binding is alive when its root is related to an alive
  // parent binding's source match (bindings' injected constraints are
  // already satisfied bottom-up).  Increasing id order visits parents
  // first.  Each arc is one merge of two document-ordered lists.
  std::vector<std::vector<char>> alive(n_trees);
  alive[0].assign(bindings[0].size(), 1);
  for (size_t t = 1; t < n_trees; ++t) {
    const GlobalArc* arc = partition.ArcInto(static_cast<int>(t));
    NOK_CHECK(arc != nullptr);

    OperatorStats join;
    join.op = "StructuralSemiJoin";
    join.tree = static_cast<int>(t);
    join.detail = "tree " + std::to_string(arc->from_tree) + " node " +
                  std::to_string(arc->from_node) + " -" +
                  std::string(AxisName(arc->axis)) + "-> tree " +
                  std::to_string(t);
    join.has_estimate = true;
    join.estimated = plan.trees[t].access.cardinality.matches;
    join.rows_in = bindings[t].size();
    OpTimer join_timer(store);

    const size_t parent = static_cast<size_t>(arc->from_tree);
    std::vector<NodeMatch> parent_sources;
    for (size_t b = 0; b < bindings[parent].size(); ++b) {
      if (!alive[parent][b]) continue;
      const auto& sources =
          bindings[parent][b].matches[static_cast<size_t>(arc->from_node)];
      parent_sources.insert(parent_sources.end(), sources.begin(),
                            sources.end());
    }
    SortUnique(&parent_sources);
    // Bindings by root in document order (several may share one root).
    auto root_of = [&](size_t b) -> const NodeMatch& {
      return bindings[t][b].matches[0].front();
    };
    std::vector<size_t> order(bindings[t].size());
    for (size_t b = 0; b < order.size(); ++b) order[b] = b;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return DocOrderLess(root_of(a), root_of(b));
    });
    std::vector<NodeMatch> roots;
    std::vector<size_t> root_index(order.size());
    for (size_t k = 0; k < order.size(); ++k) {
      if (roots.empty() || DocOrderLess(roots.back(), root_of(order[k]))) {
        roots.push_back(root_of(order[k]));
      }
      root_index[k] = roots.size() - 1;
    }
    const std::vector<char> related = FlagInnersWithRelatedOuter(
        parent_sources, roots, arc->axis, options.join_mode);
    alive[t].assign(bindings[t].size(), 0);
    size_t alive_count = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      if (!related[root_index[k]]) continue;
      alive[t][order[k]] = 1;
      ++alive_count;
    }
    join.rows_out = alive_count;
    join_timer.Finish(&join);
    trace->operators.push_back(std::move(join));
  }

  // Collect the returning node's matches over alive bindings.
  const size_t rt = static_cast<size_t>(partition.returning_tree);
  const int rn = partition.trees[rt].returning_node;
  NOK_CHECK(rn >= 0) << "partition lost the returning node";
  OperatorStats output;
  output.op = "Output";
  output.tree = partition.returning_tree;
  output.detail = "node " + std::to_string(rn);
  OpTimer output_timer(store);
  std::vector<NodeMatch> results;
  size_t alive_in = 0;
  for (size_t b = 0; b < bindings[rt].size(); ++b) {
    if (!alive[rt][b]) continue;
    ++alive_in;
    const auto& matches = bindings[rt][b].matches[static_cast<size_t>(rn)];
    results.insert(results.end(), matches.begin(), matches.end());
  }
  SortUnique(&results);

  std::vector<DeweyId> out;
  out.reserve(results.size());
  for (NodeMatch& match : results) {
    NOK_CHECK(!match.virtual_root);
    out.push_back(std::move(match.dewey));
  }
  stats->results = out.size();
  output.rows_in = alive_in;
  output.rows_out = out.size();
  output_timer.Finish(&output);
  trace->operators.push_back(std::move(output));
  return out;
}

}  // namespace

Result<std::vector<DeweyId>> Executor::Run(
    const QueryPlan& plan, const NokPartition& partition,
    const std::vector<TagId>& tag_table, const QueryOptions& options,
    QueryStats* stats, ExecutionTrace* trace) {
  NOK_CHECK(stats != nullptr && trace != nullptr);
  trace->synopsis_used = plan.synopsis_used;
  trace->empty_result = plan.empty_result;
  trace->empty_reason = plan.empty_reason;
  if (plan.empty_result) {
    // Schema-impossible plan: answer before any navigation backend is
    // even constructed — zero subject-tree pages, zero index probes.
    *stats = QueryStats{};
    stats->trees.resize(partition.trees.size());
    trace->operators.clear();
    trace->nav_mode = store_->nav_mode();
    trace->bp_steps = 0;
    trace->bp_tag_blocks_skipped = 0;
    OperatorStats op;
    op.op = "EmptyResult";
    op.detail = plan.empty_reason;
    op.has_estimate = true;
    trace->operators.push_back(std::move(op));
    return std::vector<DeweyId>();
  }
  if (store_->nav_mode() == NavMode::kBp) {
    NOK_ASSIGN_OR_RETURN(const BpIndex* bp, store_->bp_index());
    const StringStore::NavStats before = store_->tree()->nav_stats();
    BpNav nav(store_, bp);
    NOK_ASSIGN_OR_RETURN(
        auto out, RunImpl(store_, &nav, plan, partition, tag_table,
                          options, stats, trace));
    const StringStore::NavStats after = store_->tree()->nav_stats();
    trace->nav_mode = NavMode::kBp;
    trace->bp_steps = after.bp_steps - before.bp_steps;
    trace->bp_tag_blocks_skipped =
        after.bp_tag_blocks_skipped - before.bp_tag_blocks_skipped;
    return out;
  }
  PagedNav nav(store_);
  return RunImpl(store_, &nav, plan, partition, tag_table, options, stats,
                 trace);
}

}  // namespace nok
