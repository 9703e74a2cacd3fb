// Planner/executor tests: schedule validity, access-path selection and
// estimates, `ExplainLast` contents, and the last_stats staleness
// regression (a failed Evaluate must never leave
// the previous query's diagnostics in place).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "encoding/document_store.h"
#include "nok/nok_partition.h"
#include "nok/physical_matcher.h"
#include "nok/planner.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"

namespace nok {
namespace {

constexpr const char* kBibXml =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP Illustrated</title>"
    "<author><last>Stevens</last><first>W.</first></author>"
    "<publisher>Addison-Wesley</publisher><price>65.95</price></book>"
    "<book year=\"1992\"><title>Advanced Unix</title>"
    "<author><last>Stevens</last><first>W.</first></author>"
    "<publisher>Addison-Wesley</publisher><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title>"
    "<author><last>Abiteboul</last><first>Serge</first></author>"
    "<author><last>Buneman</last><first>Peter</first></author>"
    "<author><last>Suciu</last><first>Dan</first></author>"
    "<publisher>Morgan Kaufmann</publisher><price>39.95</price></book>"
    "<book year=\"1999\"><title>Economics of Tech</title>"
    "<editor><last>Gerbarg</last><first>Darcy</first>"
    "<affiliation>CITI</affiliation></editor>"
    "<publisher>Kluwer</publisher><price>129.95</price></book>"
    "</bib>";

std::unique_ptr<DocumentStore> MakeStore(const std::string& xml) {
  DocumentStore::Options options;
  options.page_size = 512;
  auto store = DocumentStore::Build(xml, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).ValueOrDie();
}

struct Planned {
  NokPartition partition;
  QueryPlan plan;
};

Planned PlanFor(DocumentStore* store, const std::string& xpath,
                const QueryOptions& options = {}) {
  Planned out;
  auto pattern = ParseXPath(xpath);
  EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
  out.partition = PartitionPattern(*pattern);
  const std::vector<TagId> tag_table =
      ResolvePatternTags(*pattern, *store->tags());
  Planner planner(store);
  auto plan = planner.Plan(out.partition, tag_table, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  out.plan = std::move(plan).ValueOrDie();
  return out;
}

/// Every arc target (child tree) must be scheduled before its source
/// (parent tree): that is the invariant that keeps semi-joins sound.
void ExpectChildrenFirst(const NokPartition& partition,
                         const std::vector<int>& schedule) {
  ASSERT_EQ(schedule.size(), partition.trees.size());
  std::vector<int> pos(schedule.size(), -1);
  for (size_t i = 0; i < schedule.size(); ++i) {
    ASSERT_GE(schedule[i], 0);
    ASSERT_LT(static_cast<size_t>(schedule[i]), schedule.size());
    pos[static_cast<size_t>(schedule[i])] = static_cast<int>(i);
  }
  for (const GlobalArc& arc : partition.arcs) {
    EXPECT_LT(pos[static_cast<size_t>(arc.to_tree)],
              pos[static_cast<size_t>(arc.from_tree)])
        << "tree " << arc.to_tree << " must run before tree "
        << arc.from_tree;
  }
}

TEST(PlannerTest, BothSchedulesAreChildrenFirst) {
  auto store = MakeStore(kBibXml);
  for (const char* xpath :
       {"/bib//book[.//first]//last", "//book[.//affiliation]",
        "//book[author/last=\"Stevens\"][.//first]", "//last"}) {
    SCOPED_TRACE(xpath);
    QueryOptions cost;
    Planned with_cost = PlanFor(store.get(), xpath, cost);
    EXPECT_TRUE(with_cost.plan.cost_based);
    ExpectChildrenFirst(with_cost.partition, with_cost.plan.schedule);

    QueryOptions fixed;
    fixed.cost_based_join_order = false;
    Planned with_fixed = PlanFor(store.get(), xpath, fixed);
    EXPECT_FALSE(with_fixed.plan.cost_based);
    ExpectChildrenFirst(with_fixed.partition, with_fixed.plan.schedule);
    EXPECT_EQ(with_fixed.plan.schedule,
              FixedSchedule(with_fixed.partition.trees.size()));
  }
}

TEST(PlannerTest, SelectivityScheduleOrdersMostSelectiveReadyFirst) {
  // Synthetic star partition: tree 0 parents trees 1 and 2.
  NokPartition partition;
  partition.trees.resize(3);
  partition.arcs.push_back({0, 0, 1, Axis::kDescendant});
  partition.arcs.push_back({0, 0, 2, Axis::kDescendant});
  std::vector<TreeAccessPlan> trees(3);
  for (int t = 0; t < 3; ++t) trees[static_cast<size_t>(t)].tree = t;
  trees[0].access.cardinality.matches = 50;
  trees[1].access.cardinality.matches = 100;
  trees[2].access.cardinality.matches = 5;

  // Trees 1 and 2 are ready (no outgoing arcs); 2 is more selective.
  // Tree 0 only becomes ready once both children are done.
  EXPECT_EQ(SelectivitySchedule(partition, trees),
            (std::vector<int>{2, 1, 0}));

  trees[1].access.cardinality.matches = 3;
  EXPECT_EQ(SelectivitySchedule(partition, trees),
            (std::vector<int>{1, 2, 0}));

  EXPECT_EQ(FixedSchedule(3), (std::vector<int>{2, 1, 0}));
}

TEST(PlannerTest, AccessPathsFollowPaperHeuristic) {
  auto store = MakeStore(kBibXml);

  // A rare tag is selective enough for the tag index; its estimate is
  // the exact B+t count.
  Planned rare = PlanFor(store.get(), "//affiliation");
  ASSERT_EQ(rare.plan.trees.size(), 2u);
  EXPECT_EQ(rare.plan.trees[1].access.strategy, StartStrategy::kTagIndex);
  EXPECT_EQ(rare.plan.trees[1].access.cardinality.candidates, 1u);

  // A frequent tag (above index_fraction of the document) scans.
  Planned frequent = PlanFor(store.get(), "//book");
  ASSERT_EQ(frequent.plan.trees.size(), 2u);
  EXPECT_EQ(frequent.plan.trees[1].access.strategy, StartStrategy::kScan);
  EXPECT_EQ(frequent.plan.trees[1].access.cardinality.candidates, 4u);

  // An equality constraint always wins (the paper's Section 6.2 rule).
  Planned value = PlanFor(store.get(), "//book[author/last=\"Stevens\"]");
  ASSERT_EQ(value.plan.trees.size(), 2u);
  EXPECT_EQ(value.plan.trees[1].access.strategy,
            StartStrategy::kValueIndex);
  EXPECT_EQ(value.plan.trees[1].access.value_operand, "Stevens");
  EXPECT_EQ(value.plan.trees[1].access.cardinality.candidates, 2u);

  // The doc-root tree is a single virtual candidate.
  EXPECT_EQ(value.plan.trees[0].access.strategy, StartStrategy::kScan);
  EXPECT_EQ(value.plan.trees[0].access.cardinality.candidates, 1u);
}

TEST(PlannerTest, ForcedStrategiesDegradeToScanWhenInapplicable) {
  auto store = MakeStore(kBibXml);

  QueryOptions force_value;
  force_value.strategy = StartStrategy::kValueIndex;
  Planned no_value = PlanFor(store.get(), "//book", force_value);
  EXPECT_EQ(no_value.plan.trees[1].access.strategy, StartStrategy::kScan);

  QueryOptions force_tag;
  force_tag.strategy = StartStrategy::kTagIndex;
  Planned all_wild = PlanFor(store.get(), "//*", force_tag);
  EXPECT_EQ(all_wild.plan.trees[1].access.strategy, StartStrategy::kScan);

  QueryOptions force_path;
  force_path.strategy = StartStrategy::kPathIndex;
  Planned no_path = PlanFor(store.get(), "//book", force_path);
  // `//book` has no rooted tag path (the arc crosses a descendant step).
  EXPECT_EQ(no_path.plan.trees[1].access.strategy, StartStrategy::kScan);
}

TEST(PlannerTest, ArcAncestorAnchorOnlyWherePrefilterCannotNarrow) {
  // Twenty <c>, thirty <i><k>w</k></i> under each; one k holds "v" and
  // one i also holds an <x>.
  std::string xml = "<r>";
  for (int c = 0; c < 20; ++c) {
    xml += "<c>";
    for (int i = 0; i < 30; ++i) {
      xml += c == 19 && i == 0 ? "<i><k>v</k><x/></i>" : "<i><k>w</k></i>";
    }
    xml += "</c>";
  }
  xml += "</r>";
  auto store = MakeStore(xml);

  // `/r/c` is selective enough for its tag probe, anchored on the arc
  // source, though it has far more hits than the one value match: the
  // semi-join pre-filter narrows those hits to the match's ancestors
  // before any page is read, so the probe stays.
  Planned on_trunk = PlanFor(store.get(), "/r/c//i[k=\"v\"]");
  ASSERT_EQ(on_trunk.plan.trees.size(), 2u);
  EXPECT_EQ(on_trunk.plan.trees[0].access.strategy, StartStrategy::kTagIndex);
  EXPECT_EQ(on_trunk.plan.trees[0].access.anchor, 2);
  EXPECT_EQ(on_trunk.plan.trees[0].access.arc_tree, -1);

  // `/r/c/i` probes r, above the arc source: the one x anchors it on
  // its i ancestor instead, marked by arc_tree with no index probe.
  Planned below = PlanFor(store.get(), "/r/c/i//x");
  ASSERT_EQ(below.plan.trees.size(), 2u);
  const AccessPath& up = below.plan.trees[0].access;
  EXPECT_EQ(up.strategy, StartStrategy::kScan);
  EXPECT_EQ(up.arc_tree, 1);
  EXPECT_EQ(up.anchor, 3);
  EXPECT_NE(below.plan.ToString(below.partition)
                .find("tree 0: arc-ancestors of tree 1 anchor=node3"),
            std::string::npos)
      << below.plan.ToString(below.partition);
}

TEST(PlannerTest, PlanToStringIsStable) {
  auto store = MakeStore(kBibXml);
  Planned p = PlanFor(store.get(), "//book[author/last=\"Stevens\"]");
  const std::string text = p.plan.ToString(p.partition);
  EXPECT_NE(text.find("plan: cost-based join order"), std::string::npos);
  EXPECT_NE(text.find("schedule: 1 0"), std::string::npos);
  EXPECT_NE(text.find("value-index value=\"Stevens\""), std::string::npos);
  EXPECT_NE(text.find("arc: tree 0 node 0 -//-> tree 1"),
            std::string::npos);
}

TEST(QueryEngineTest, FailedEvaluateClearsPreviousDiagnostics) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());

  auto good = engine.Evaluate("//book");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(engine.last_stats().results, 4u);
  EXPECT_FALSE(engine.last_stats().trees.empty());
  EXPECT_NE(engine.ExplainLast(), "no query evaluated yet\n");

  // A malformed query must not leave the old stats/plan behind.
  auto bad = engine.Evaluate("/a[");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.last_stats().results, 0u);
  EXPECT_TRUE(engine.last_stats().trees.empty());
  EXPECT_EQ(engine.ExplainLast(), "no query evaluated yet\n");
}

TEST(QueryEngineTest, ExplainPrintsEstimatedAndActualCardinalities) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());

  // Branchy query: value-index anchor, a semi-join pre-filter on the
  // anchor hits, and a structural semi-join against the predicate tree.
  auto result =
      engine.Evaluate("//book[author/last=\"Stevens\"][.//first]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = engine.ExplainLast();
  EXPECT_NE(text.find("ValueIndexProbe"), std::string::npos) << text;
  EXPECT_NE(text.find("SemiJoinFilter"), std::string::npos) << text;
  EXPECT_NE(text.find("StructuralSemiJoin"), std::string::npos) << text;
  EXPECT_NE(text.find("NokMatch"), std::string::npos) << text;
  EXPECT_NE(text.find("Output"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("in="), std::string::npos) << text;
  EXPECT_NE(text.find("out="), std::string::npos) << text;
  EXPECT_NE(text.find("results: " + std::to_string(result->size())),
            std::string::npos)
      << text;

  // Tag-index probe.
  ASSERT_TRUE(engine.Evaluate("//affiliation").ok());
  EXPECT_NE(engine.ExplainLast().find("TagIndexProbe"), std::string::npos);

  // Forced sequential scan.
  QueryOptions scan;
  scan.strategy = StartStrategy::kScan;
  ASSERT_TRUE(engine.Evaluate("//book", scan).ok());
  EXPECT_NE(engine.ExplainLast().find("AnchorScan"), std::string::npos);
}

TEST(QueryEngineTest, CostBasedAndFixedOrdersAgree) {
  auto store = MakeStore(kBibXml);
  QueryEngine engine(store.get());
  for (const char* xpath :
       {"//book[.//affiliation]", "/bib//book[.//first]//last",
        "//book[author/last=\"Stevens\"][.//first]",
        "//editor/following::book"}) {
    SCOPED_TRACE(xpath);
    QueryOptions cost;
    auto with_cost = engine.Evaluate(xpath, cost);
    ASSERT_TRUE(with_cost.ok()) << with_cost.status().ToString();
    QueryOptions fixed;
    fixed.cost_based_join_order = false;
    auto with_fixed = engine.Evaluate(xpath, fixed);
    ASSERT_TRUE(with_fixed.ok()) << with_fixed.status().ToString();
    EXPECT_EQ(*with_cost, *with_fixed);
  }
}

}  // namespace
}  // namespace nok
