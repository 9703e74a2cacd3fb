// Query planner: cost-based access-path and semi-join-order selection.
//
// The planner consumes a NokPartition plus cheap cardinality estimates
// (exact B+t tag counts from the dictionary, capped B+v value counts,
// capped B+p path counts, the document node count) and emits a QueryPlan
// — a serializable IR describing, per NoK tree, which access path feeds
// the matcher (the paper's Section 6.2 heuristic: value index > selective
// tag index > scan, with the Section 8 path index as a fourth option) and
// in which order the trees are evaluated (the semi-join schedule).
//
// When the store carries a path synopsis (path_synopsis.h) the flat
// tag-count estimates are replaced by per-pattern-node cardinalities:
// every child/descendant arc of the pattern is evaluated against the
// trie of distinct rooted paths, so `//a//b` and `//a//c` no longer cost
// the same when one composition never occurs.  A pattern node whose arc
// matches no rooted path proves the whole query empty — the plan is
// marked empty_result and the Executor returns without any I/O.
//
// Planning is pure: no index hits are fetched and no subject-tree pages
// are touched beyond the estimate probes, so plans are cheap to build
// per query and inspectable (`nokq explain`).  The executor (executor.h)
// is the only layer that materializes candidates.

#ifndef NOKXML_NOK_PLANNER_H_
#define NOKXML_NOK_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "encoding/document_store.h"
#include "nok/nok_partition.h"
#include "nok/structural_join.h"

namespace nok {

/// Starting-point strategy.  kPathIndex is the paper's Section 8
/// extension: anchor on a whole rooted tag path when single tags are
/// unselective but the path is rare.
enum class StartStrategy { kAuto, kScan, kTagIndex, kValueIndex,
                           kPathIndex };

/// Per-query knobs.
struct QueryOptions {
  StartStrategy strategy = StartStrategy::kAuto;
  /// Containment test for the global-arc joins.
  JoinMode join_mode = JoinMode::kDewey;
  /// kAuto: a tag index is used when the best tag count is below this
  /// fraction of the document's node count; otherwise scan.
  double index_fraction = 1.0 / 16;
  /// Consider the path index (B+p) during planning.  Only applies while
  /// the store's positions are fresh (the path index is rebuilt, not
  /// maintained, across updates).
  bool use_path_index = true;
  /// Cost-based semi-join schedule: evaluate the most selective ready
  /// tree first and pre-filter anchor candidates against already-
  /// evaluated child-tree results before any page is fetched for them.
  /// Off reproduces the legacy fixed partition order exactly.
  bool cost_based_join_order = true;
  /// Feed estimates from the store's path synopsis when it has a current
  /// one: per-pattern-node cardinalities and schema-impossible-path
  /// pruning (EmptyResult plans).  Off falls back to flat tag counts —
  /// the `--no-synopsis` ablation.
  bool use_synopsis = true;
};

/// Cardinality estimate for one NoK tree.  Flows from access-path
/// selection through semi-join scheduling into executor operator traces
/// (est-vs-actual rows) and explain formatting.
struct Cardinality {
  /// Expected candidates produced by the access-path probe (tag counts
  /// exact; value/path counts capped, see planner.cc).
  uint64_t candidates = 0;
  /// Expected bindings produced by this tree's structural match.  With
  /// the path synopsis this is the independence estimate of the node the
  /// evaluator emits bindings for (the anchor under its trunk
  /// constraints, or the tree root for whole-tree matching); without the
  /// synopsis it falls back to `candidates`.
  uint64_t matches = 0;
  /// True when `matches` came from the path synopsis.
  bool from_synopsis = false;
};

/// Per-pattern-node cardinalities derived from the path synopsis.  All
/// vectors are indexed by PatternNode::id (gaps stay zero/empty when an
/// id is unused).  `expected[i]` is the classic independence estimate of
/// how many document nodes match pattern node i *and* its whole pattern
/// subtree: the path-constrained occurrence count `total[i]` scaled by
/// min(1, expected[child]/total[i]) per structural child — existence
/// predicates shrink a node's count by the fraction of its occurrences
/// that can supply a witness.  Order axes (following/preceding) are
/// invisible to paths and contribute no factor.
struct SynopsisCardinalities {
  std::vector<double> expected;       ///< Subtree-pattern match estimate.
  std::vector<double> total;          ///< Occurrences on surviving paths.
  std::vector<std::vector<int>> kids; ///< Structural pattern children.
};

/// Confines a scanned tree to the subtrees below its parent's probe hits
/// (the down direction of an arc-scoped `//` join, DESIGN.md section 14):
/// the root candidates come only from inside the subtrees of the parent
/// tree's `span_node` subjects, each `up` levels above one of the
/// parent's index hits.  Every arc source the parent can bind lies in
/// one of those subtrees, so no joinable root is lost.
struct ArcScope {
  int tree = -1;      ///< Parent tree whose probe bounds the scan; -1: none.
  int span_node = 0;  ///< Parent-tree node whose subjects root the spans.
  size_t up = 0;      ///< Levels from a parent probe hit to its span root.
};

/// How one NoK tree's candidates are produced.  The operands (tag,
/// value, rooted tag path) are recorded here so the executor can fetch
/// hits without re-deriving the planner's choice.
struct AccessPath {
  StartStrategy strategy = StartStrategy::kScan;
  /// Local node index the index hits refer to; 0 with kScan means a
  /// whole-tree match from scanned/virtual roots.  With arc_tree set it
  /// is the arc source whose subjects the candidates are.
  int anchor = 0;
  /// Set (>= 0, strategy kScan: no index probe) when the candidates are
  /// the ancestors of this child tree's qualified roots that the anchor
  /// can bind (the up direction of an arc-scoped `//` join, DESIGN.md
  /// section 14); -1: none.
  int arc_tree = -1;
  /// kScan: set when the scan is confined to a parent's probe spans.
  ArcScope scope;
  /// kTagIndex: the anchor's resolved tag (kInvalidTag when the name is
  /// absent from the document — the probe then yields no hits, which is
  /// the correct empty result).
  TagId tag = kInvalidTag;
  /// kValueIndex: the equality operand.
  std::string value_operand;
  /// kPathIndex: the rooted tag path (root tag first; empty when some
  /// tag on the path is absent — again a correct empty probe).
  std::vector<TagId> tag_path;
  /// Estimated probe candidates and refined tree matches (see
  /// Cardinality).
  Cardinality cardinality;
  /// Display label for plans ("tag=author", "value=\"x\"", ...).
  std::string display;
};

/// Plan for one NoK tree.
struct TreeAccessPlan {
  int tree = 0;
  AccessPath access;
};

/// A complete plan for one partitioned pattern.
///
/// Trees are planned children first, so a parent's planning sees each
/// child's match estimate (the cost of an arc-ancestor anchor); a second
/// pass then scopes children under parents with selective probes.
///
/// `schedule` lists tree ids in evaluation order.  It is always a valid
/// children-before-parents order: a tree's arc constraints must be
/// installed before its parent tree is matched (witness selection during
/// matching is what keeps the semi-joins sound; a binding-level
/// post-filter could not be).  The legacy order is n-1..0; the
/// cost-based order picks the most selective ready tree first.
struct QueryPlan {
  std::vector<TreeAccessPlan> trees;  ///< Indexed by tree id.
  std::vector<int> schedule;          ///< Tree ids, evaluation order.
  /// Whether the executor may prune anchor candidates with the semi-join
  /// pre-filter (QueryOptions::cost_based_join_order at plan time).
  bool cost_based = true;
  /// Navigation tier the plan was built for (the store's nav_mode at
  /// plan time).  In kBp mode scans and
  /// Dewey resolution run on the in-memory balanced-parentheses index —
  /// a zero-page access path — instead of the paged string.
  NavMode nav_mode = NavMode::kPaged;
  /// Whether the path synopsis fed the estimates (QueryOptions::
  /// use_synopsis AND the store had a current one).
  bool synopsis_used = false;
  /// Set when the synopsis proved some pattern arc matches no rooted
  /// path in the document: the schedule is empty and the Executor emits
  /// a single EmptyResult operator — zero pages read.
  bool empty_result = false;
  /// Names the pattern node with the empty match set.
  std::string empty_reason;

  /// Serialized human-readable form (stable; `nokq explain` prints it).
  std::string ToString(const NokPartition& partition) const;
};

/// Stateless plan builder over one DocumentStore.
class Planner {
 public:
  explicit Planner(DocumentStore* store) : store_(store) {}

  /// Plans every tree of the partition and computes the semi-join
  /// schedule.  tag_table maps PatternNode::id -> resolved TagId (see
  /// ResolvePatternTags); estimates come from the dictionary and capped
  /// index probes only — no hits are fetched.
  Result<QueryPlan> Plan(const NokPartition& partition,
                         const std::vector<TagId>& tag_table,
                         const QueryOptions& options);

 private:
  /// `cards`, when non-null, carries the synopsis-refined per-pattern-
  /// node cardinalities; null = flat tag-count estimates.  `planned`
  /// holds the plans of the tree's child trees (planned first).
  Result<AccessPath> PlanTree(const NokPartition& partition, int tree_id,
                              const std::vector<TreeAccessPlan>& planned,
                              const std::vector<TagId>& tag_table,
                              const QueryOptions& options,
                              const SynopsisCardinalities* cards);

  /// Confines each child tree that would scan (or run a larger tag probe)
  /// to the spans of its parent's index probe; see ArcScope.
  void ScopeDescendantArcs(const NokPartition& partition,
                           const std::vector<TagId>& tag_table,
                           QueryPlan* plan);

  DocumentStore* store_;
};

/// The evaluation order used by the plan.  Exposed for tests: both
/// orders must be children-before-parents over the partition's arcs.
std::vector<int> FixedSchedule(size_t n_trees);
std::vector<int> SelectivitySchedule(const NokPartition& partition,
                                     const std::vector<TreeAccessPlan>& trees);

/// Human-readable strategy name ("scan", "tag-index", ...).
const char* StrategyName(StartStrategy strategy);

}  // namespace nok

#endif  // NOKXML_NOK_PLANNER_H_
