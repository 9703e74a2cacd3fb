// Structural joins over NoK partial-match results (Sections 2 and 5).
//
// After NoK pattern matching, the per-tree results are combined along the
// global arcs (descendant '//', following) of the partition.  Two
// containment tests are supported:
//
//   * kInterval — the paper's condition: the pair (GlobalPos(open),
//     GlobalPos(close)) of a node is an interval; descendant means strict
//     interval containment, following means inner.start > outer.end.
//     This is "just as in the interval encoding approach" (Section 5).
//   * kDewey — Dewey-prefix containment: ancestor iff proper prefix.
//     Needs no subtree-end scan, so it is the engine default; kInterval
//     is kept for the paper-faithful mode and for the I/O ablation.
//
// Joins are semi-joins (the query returns a single node set, so arcs act
// as existential filters) implemented with the classic sort + ancestor-
// stack merge.

#ifndef NOKXML_NOK_STRUCTURAL_JOIN_H_
#define NOKXML_NOK_STRUCTURAL_JOIN_H_

#include <cstdint>
#include <vector>

#include "encoding/dewey.h"
#include "nok/pattern_tree.h"

namespace nok {

/// Containment test selector.
enum class JoinMode { kDewey, kInterval };

/// One matched subject node as seen by the join layer.
struct NodeMatch {
  DeweyId dewey = DeweyId::Root();
  /// Interval endpoints (valid when built in kInterval mode).
  uint64_t start = 0;
  uint64_t end = 0;
  /// The virtual super-root: ancestor of everything, followed by nothing.
  bool virtual_root = false;
};

/// Document-order comparison (by Dewey ID; well-defined in both modes).
bool DocOrderLess(const NodeMatch& a, const NodeMatch& b);

/// Sorts matches into document order and drops duplicates.
void SortUnique(std::vector<NodeMatch>* matches);

/// True iff inner stands in `axis` relation to outer (axis kDescendant:
/// inner is a proper descendant of outer; kFollowing: inner starts after
/// outer's subtree ends).
bool IsRelated(const NodeMatch& outer, const NodeMatch& inner, Axis axis,
               JoinMode mode);

/// flags[k] = inner k is related to at least one outer.  Both inputs
/// must be sorted (SortUnique).  One merge pass: an ancestor stack for
/// kDescendant; for the order axes each inner's canonical witness is
/// found after at most depth-many outers.
std::vector<char> FlagInnersWithRelatedOuter(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode);

/// Returns the inners related to at least one outer, in document order.
/// Both inputs must be sorted (SortUnique).
std::vector<NodeMatch> SelectRelatedInners(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode);

/// flags[i] = outer i has at least one related inner.  Both inputs must
/// be sorted.
std::vector<char> FlagOutersWithRelatedInner(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode);

}  // namespace nok

#endif  // NOKXML_NOK_STRUCTURAL_JOIN_H_
