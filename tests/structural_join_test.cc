#include <gtest/gtest.h>

#include "common/random.h"
#include "nok/structural_join.h"

namespace nok {
namespace {

NodeMatch M(std::vector<uint32_t> dewey) {
  NodeMatch m;
  m.dewey = DeweyId(std::move(dewey));
  return m;
}

NodeMatch MI(std::vector<uint32_t> dewey, uint64_t start, uint64_t end) {
  NodeMatch m = M(std::move(dewey));
  m.start = start;
  m.end = end;
  return m;
}

NodeMatch Virtual() {
  NodeMatch m;
  m.virtual_root = true;
  return m;
}

TEST(StructuralJoinTest, IsRelatedDeweyDescendant) {
  EXPECT_TRUE(IsRelated(M({0, 1}), M({0, 1, 2}), Axis::kDescendant,
                        JoinMode::kDewey));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 1}), Axis::kDescendant,
                         JoinMode::kDewey));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 2, 1}), Axis::kDescendant,
                         JoinMode::kDewey));
  EXPECT_TRUE(IsRelated(Virtual(), M({0}), Axis::kDescendant,
                        JoinMode::kDewey));
}

TEST(StructuralJoinTest, IsRelatedIntervalDescendant) {
  EXPECT_TRUE(IsRelated(MI({0}, 0, 100), MI({0, 1}, 5, 10),
                        Axis::kDescendant, JoinMode::kInterval));
  EXPECT_FALSE(IsRelated(MI({0, 1}, 5, 10), MI({0, 2}, 12, 20),
                         Axis::kDescendant, JoinMode::kInterval));
}

TEST(StructuralJoinTest, IsRelatedFollowing) {
  // Dewey: after in document order and not a descendant.
  EXPECT_TRUE(IsRelated(M({0, 1}), M({0, 2}), Axis::kFollowing,
                        JoinMode::kDewey));
  EXPECT_FALSE(IsRelated(M({0, 1}), M({0, 1, 0}), Axis::kFollowing,
                         JoinMode::kDewey));
  EXPECT_FALSE(IsRelated(M({0, 2}), M({0, 1}), Axis::kFollowing,
                         JoinMode::kDewey));
  EXPECT_FALSE(IsRelated(Virtual(), M({0, 1}), Axis::kFollowing,
                         JoinMode::kDewey));
  // Interval: starts after the outer's end.
  EXPECT_TRUE(IsRelated(MI({0, 1}, 5, 10), MI({0, 2}, 12, 20),
                        Axis::kFollowing, JoinMode::kInterval));
  EXPECT_FALSE(IsRelated(MI({0, 1}, 5, 10), MI({0, 1, 0}, 6, 8),
                         Axis::kFollowing, JoinMode::kInterval));
}

TEST(StructuralJoinTest, SortUniqueOrdersAndDedupes) {
  std::vector<NodeMatch> v{M({0, 2}), M({0, 1}), M({0, 1}), M({0, 1, 5})};
  SortUnique(&v);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].dewey.ToString(), "0.1");
  EXPECT_EQ(v[1].dewey.ToString(), "0.1.5");
  EXPECT_EQ(v[2].dewey.ToString(), "0.2");
}

TEST(StructuralJoinTest, SelectRelatedInnersDescendant) {
  std::vector<NodeMatch> outers{M({0, 1}), M({0, 3})};
  std::vector<NodeMatch> inners{M({0, 0, 1}), M({0, 1, 0}), M({0, 1, 2, 3}),
                                M({0, 2}), M({0, 3, 0})};
  SortUnique(&outers);
  SortUnique(&inners);
  auto out = SelectRelatedInners(outers, inners, Axis::kDescendant,
                                 JoinMode::kDewey);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].dewey.ToString(), "0.1.0");
  EXPECT_EQ(out[1].dewey.ToString(), "0.1.2.3");
  EXPECT_EQ(out[2].dewey.ToString(), "0.3.0");
}

TEST(StructuralJoinTest, SelectRelatedInnersNestedOuters) {
  // Ancestor-stack case: a shallower outer must not be popped for good by
  // a deeper non-matching one.
  std::vector<NodeMatch> outers{M({0, 1}), M({0, 1, 5, 2})};
  std::vector<NodeMatch> inners{M({0, 1, 7})};
  SortUnique(&outers);
  SortUnique(&inners);
  auto out = SelectRelatedInners(outers, inners, Axis::kDescendant,
                                 JoinMode::kDewey);
  ASSERT_EQ(out.size(), 1u);  // 0.1 is an ancestor even if 0.1.5.2 is not.
}

TEST(StructuralJoinTest, SelectRelatedInnersVirtualOuter) {
  std::vector<NodeMatch> outers{Virtual()};
  std::vector<NodeMatch> inners{M({0}), M({0, 4})};
  auto out = SelectRelatedInners(outers, inners, Axis::kDescendant,
                                 JoinMode::kDewey);
  EXPECT_EQ(out.size(), 2u);
}

TEST(StructuralJoinTest, SelectRelatedInnersFollowing) {
  std::vector<NodeMatch> outers{M({0, 1})};
  std::vector<NodeMatch> inners{M({0, 0}), M({0, 1, 0}), M({0, 2}),
                                M({0, 3, 1})};
  SortUnique(&outers);
  SortUnique(&inners);
  auto out = SelectRelatedInners(outers, inners, Axis::kFollowing,
                                 JoinMode::kDewey);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dewey.ToString(), "0.2");
  EXPECT_EQ(out[1].dewey.ToString(), "0.3.1");
}

TEST(StructuralJoinTest, FlagOutersDescendant) {
  std::vector<NodeMatch> outers{M({0, 0}), M({0, 1}), M({0, 2})};
  std::vector<NodeMatch> inners{M({0, 1, 3}), M({0, 3})};
  SortUnique(&outers);
  SortUnique(&inners);
  auto flags = FlagOutersWithRelatedInner(outers, inners,
                                          Axis::kDescendant,
                                          JoinMode::kDewey);
  ASSERT_EQ(flags.size(), 3u);
  EXPECT_FALSE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(flags[2]);
}

TEST(StructuralJoinTest, FlagOutersFollowing) {
  std::vector<NodeMatch> outers{M({0, 0}), M({0, 5})};
  std::vector<NodeMatch> inners{M({0, 4})};
  auto flags = FlagOutersWithRelatedInner(outers, inners, Axis::kFollowing,
                                          JoinMode::kDewey);
  EXPECT_TRUE(flags[0]);
  EXPECT_FALSE(flags[1]);
}

TEST(StructuralJoinTest, EmptyInputs) {
  std::vector<NodeMatch> some{M({0})};
  EXPECT_TRUE(SelectRelatedInners({}, some, Axis::kDescendant,
                                  JoinMode::kDewey)
                  .empty());
  EXPECT_TRUE(SelectRelatedInners(some, {}, Axis::kDescendant,
                                  JoinMode::kDewey)
                  .empty());
  auto flags = FlagOutersWithRelatedInner(some, {}, Axis::kDescendant,
                                          JoinMode::kDewey);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_FALSE(flags[0]);
}

// Property: the optimized joins agree with a quadratic reference.
class JoinFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinFuzz, AgreesWithQuadraticReference) {
  Random rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    auto random_matches = [&](size_t n) {
      std::vector<NodeMatch> out;
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint32_t> c{0};
        const size_t depth = rng.Range(0, 3);
        for (size_t d = 0; d < depth; ++d) {
          c.push_back(static_cast<uint32_t>(rng.Uniform(3)));
        }
        out.push_back(M(std::move(c)));
      }
      SortUnique(&out);
      return out;
    };
    const auto outers = random_matches(rng.Range(0, 8));
    const auto inners = random_matches(rng.Range(0, 8));
    for (Axis axis :
         {Axis::kDescendant, Axis::kFollowing, Axis::kPreceding}) {
      auto got = SelectRelatedInners(outers, inners, axis,
                                     JoinMode::kDewey);
      std::vector<NodeMatch> want;
      for (const NodeMatch& inner : inners) {
        for (const NodeMatch& outer : outers) {
          if (IsRelated(outer, inner, axis, JoinMode::kDewey)) {
            want.push_back(inner);
            break;
          }
        }
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dewey.ToString(), want[i].dewey.ToString());
      }
      auto flags = FlagOutersWithRelatedInner(outers, inners, axis,
                                              JoinMode::kDewey);
      for (size_t i = 0; i < outers.size(); ++i) {
        bool any = false;
        for (const NodeMatch& inner : inners) {
          any = any || IsRelated(outers[i], inner, axis, JoinMode::kDewey);
        }
        EXPECT_EQ(static_cast<bool>(flags[i]), any) << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFuzz, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace nok
