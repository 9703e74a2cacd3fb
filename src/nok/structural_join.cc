#include "nok/structural_join.h"

#include <algorithm>

#include "common/logging.h"

namespace nok {

bool DocOrderLess(const NodeMatch& a, const NodeMatch& b) {
  if (a.virtual_root != b.virtual_root) return a.virtual_root;
  if (a.virtual_root) return false;
  return a.dewey.Compare(b.dewey) < 0;
}

void SortUnique(std::vector<NodeMatch>* matches) {
  std::sort(matches->begin(), matches->end(), DocOrderLess);
  matches->erase(std::unique(matches->begin(), matches->end(),
                             [](const NodeMatch& a, const NodeMatch& b) {
                               return a.virtual_root == b.virtual_root &&
                                      (a.virtual_root ||
                                       a.dewey == b.dewey);
                             }),
                 matches->end());
}

bool IsRelated(const NodeMatch& outer, const NodeMatch& inner, Axis axis,
               JoinMode mode) {
  NOK_CHECK(!inner.virtual_root);
  switch (axis) {
    case Axis::kDescendant:
      if (outer.virtual_root) return true;
      if (mode == JoinMode::kInterval) {
        return outer.start < inner.start && inner.end < outer.end;
      }
      return outer.dewey.IsAncestorOf(inner.dewey);
    case Axis::kFollowing:
      if (outer.virtual_root) return false;  // Nothing follows the root.
      if (mode == JoinMode::kInterval) {
        return inner.start > outer.end;
      }
      return outer.dewey.Compare(inner.dewey) < 0 &&
             !outer.dewey.IsAncestorOf(inner.dewey);
    case Axis::kPreceding:
      // inner precedes outer: strictly before in document order and not
      // an ancestor.
      if (outer.virtual_root) return false;  // Nothing precedes the root.
      if (mode == JoinMode::kInterval) {
        return inner.end < outer.start;
      }
      return inner.dewey.Compare(outer.dewey) < 0 &&
             !inner.dewey.IsAncestorOf(outer.dewey);
    default:
      NOK_CHECK(false) << "structural joins handle global axes only";
      return false;
  }
}

std::vector<char> FlagInnersWithRelatedOuter(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode) {
  std::vector<char> flags(inners.size(), 0);
  if (outers.empty() || inners.empty()) return flags;

  if (axis == Axis::kDescendant) {
    // Ancestor-stack merge (the stack-based structural join of
    // Al-Khalifa et al., which the paper builds on).
    if (outers[0].virtual_root) {
      flags.assign(inners.size(), 1);
      return flags;
    }
    std::vector<const NodeMatch*> stack;
    size_t i = 0;
    for (size_t k = 0; k < inners.size(); ++k) {
      const NodeMatch& inner = inners[k];
      // Push outers preceding this inner, keeping only the nesting chain.
      while (i < outers.size() && DocOrderLess(outers[i], inner)) {
        while (!stack.empty() &&
               !IsRelated(*stack.back(), outers[i], Axis::kDescendant,
                          mode)) {
          stack.pop_back();
        }
        stack.push_back(&outers[i]);
        ++i;
      }
      while (!stack.empty() &&
             !IsRelated(*stack.back(), inner, Axis::kDescendant, mode)) {
        stack.pop_back();
      }
      flags[k] = stack.empty() ? 0 : 1;
    }
    return flags;
  }

  if (axis == Axis::kFollowing) {
    // An inner qualifies iff some outer's subtree ends before it.  Outers
    // that fail for a given inner are its ancestors (or later nodes), so
    // scanning outers in document order stops after at most depth-many.
    for (size_t k = 0; k < inners.size(); ++k) {
      for (const NodeMatch& outer : outers) {
        if (!DocOrderLess(outer, inners[k])) break;
        if (IsRelated(outer, inners[k], Axis::kFollowing, mode)) {
          flags[k] = 1;
          break;
        }
      }
    }
    return flags;
  }

  // Preceding: an inner qualifies iff some outer starts after the inner's
  // subtree.  The document-order-last outer is the canonical witness:
  // every node after a qualifying outer lies past the inner's subtree too.
  NOK_CHECK(axis == Axis::kPreceding);
  const NodeMatch& last = outers.back();
  for (size_t k = 0; k < inners.size(); ++k) {
    flags[k] = DocOrderLess(inners[k], last) &&
                       IsRelated(last, inners[k], Axis::kPreceding, mode)
                   ? 1
                   : 0;
  }
  return flags;
}

std::vector<NodeMatch> SelectRelatedInners(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode) {
  const std::vector<char> flags =
      FlagInnersWithRelatedOuter(outers, inners, axis, mode);
  std::vector<NodeMatch> out;
  for (size_t k = 0; k < inners.size(); ++k) {
    if (flags[k]) out.push_back(inners[k]);
  }
  return out;
}

std::vector<char> FlagOutersWithRelatedInner(
    const std::vector<NodeMatch>& outers,
    const std::vector<NodeMatch>& inners, Axis axis, JoinMode mode) {
  std::vector<char> flags(outers.size(), 0);
  if (inners.empty()) return flags;

  if (axis == Axis::kDescendant) {
    for (size_t i = 0; i < outers.size(); ++i) {
      if (outers[i].virtual_root) {
        flags[i] = 1;
        continue;
      }
      // Descendants of an outer form a contiguous doc-order block right
      // after it; the first inner past the outer decides.
      auto it = std::upper_bound(inners.begin(), inners.end(), outers[i],
                                 DocOrderLess);
      if (it != inners.end() &&
          IsRelated(outers[i], *it, Axis::kDescendant, mode)) {
        flags[i] = 1;
      }
    }
    return flags;
  }

  if (axis == Axis::kFollowing) {
    // The document-order-last inner is the easiest witness.
    const NodeMatch& last = inners.back();
    for (size_t i = 0; i < outers.size(); ++i) {
      flags[i] = IsRelated(outers[i], last, Axis::kFollowing, mode) ? 1 : 0;
    }
    return flags;
  }

  // Preceding: scan inners from the front past the outer's ancestors (at
  // most depth-many) to find a witness that closed before the outer.
  NOK_CHECK(axis == Axis::kPreceding);
  for (size_t i = 0; i < outers.size(); ++i) {
    for (const NodeMatch& inner : inners) {
      if (!DocOrderLess(inner, outers[i])) break;
      if (IsRelated(outers[i], inner, Axis::kPreceding, mode)) {
        flags[i] = 1;
        break;
      }
    }
  }
  return flags;
}

}  // namespace nok
