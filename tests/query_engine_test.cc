#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/navigational_engine.h"
#include "common/random.h"
#include "encoding/document_store.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "tests/oracle.h"
#include "tests/test_util.h"
#include "xml/dom.h"

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

struct EngineFixture {
  std::unique_ptr<DocumentStore> store;
  DomTree dom;
  std::unique_ptr<QueryEngine> engine;
};

EngineFixture MakeFixture(const std::string& xml,
                          uint32_t page_size = kDefaultPageSize,
                          NavMode nav_mode = NavMode::kPaged) {
  EngineFixture f;
  DocumentStore::Options options;
  options.page_size = page_size;
  options.nav_mode = nav_mode;
  auto store = DocumentStore::Build(xml, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  f.store = std::move(store).ValueOrDie();
  auto dom = DomTree::Parse(xml);
  EXPECT_TRUE(dom.ok());
  f.dom = std::move(dom).ValueOrDie();
  f.engine = std::make_unique<QueryEngine>(f.store.get());
  return f;
}

void ExpectMatchesOracle(EngineFixture* f, const std::string& query,
                         const QueryOptions& options = {}) {
  auto got = f->engine->Evaluate(query, options);
  ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
  auto want = OracleEvaluateDewey(query, f->dom);
  ASSERT_TRUE(want.ok()) << query;
  std::vector<std::string> got_s, want_s;
  for (const auto& d : *got) got_s.push_back(d.ToString());
  for (const auto& d : *want) want_s.push_back(d.ToString());
  EXPECT_EQ(got_s, want_s) << query;
}

TEST(QueryEngineTest, PaperExampleQuery) {
  auto f = MakeFixture(kBibXml);
  // The paper's Example 1.
  auto result = f.engine->Evaluate(
      "//book[author/last=\"Stevens\"][price<100]");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].ToString(), "0.0");
  EXPECT_EQ((*result)[1].ToString(), "0.1");
}

class BibQueries : public ::testing::TestWithParam<const char*> {};

TEST_P(BibQueries, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Paperish, BibQueries,
    ::testing::Values(
        "/bib/book", "//book", "//last", "/bib/book/author/last",
        "/bib/book[author/last=\"Stevens\"]",
        "//book[author/last=\"Stevens\"][price<100]",
        "//book[price<50]", "/bib/book[price>100]",
        "//book[@year=\"2000\"]/author", "/bib/book[editor]/publisher",
        "//author[last=\"Suciu\"]", "//book[title]/price",
        "/bib/book[author][editor]", "//book//last",
        "/bib//affiliation", "//editor/following::book",
        "/bib/book/title/following::author",
        "//book[author/following-sibling::author]",
        "/bib/*[price>60]/title", "//*[@year]",
        "//book[publisher=\"Kluwer\"]//first",
        "/bib/book[price!=\"65.95\"]"));

TEST(QueryEngineTest, FusedScanUsesTagSummaries) {
  // A rare tag under forced kScan takes the fused NextOpenWithTag path:
  // with small pages the affiliation scan must skip pages by tag summary
  // and still match the oracle.
  auto f = MakeFixture(kBibXml, /*page_size=*/64);
  f.store->tree()->ResetNavStats();
  QueryOptions options;
  options.strategy = StartStrategy::kScan;
  ExpectMatchesOracle(&f, "//affiliation", options);
  EXPECT_GT(f.store->tree()->nav_stats().pages_skipped_by_tag, 0u);
}

TEST(QueryEngineTest, ScanAgreesAcrossAblationModes) {
  // The four {header-skip} x {tag-summary} combinations must return the
  // same answers for every forced-scan query.
  const char* queries[] = {"//book",      "//last",        "//affiliation",
                           "//book//last", "/bib/book/title", "//*[@year]"};
  std::vector<std::vector<std::string>> baseline(std::size(queries));
  bool first = true;
  for (bool header_skip : {true, false}) {
    for (bool tag_summaries : {true, false}) {
      DocumentStore::Options store_options;
      store_options.page_size = 64;
      store_options.use_header_skip = header_skip;
      store_options.use_tag_summaries = tag_summaries;
      auto store = DocumentStore::Build(kBibXml, store_options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      QueryEngine engine(store->get());
      QueryOptions options;
      options.strategy = StartStrategy::kScan;
      for (size_t q = 0; q < std::size(queries); ++q) {
        auto r = engine.Evaluate(queries[q], options);
        ASSERT_TRUE(r.ok()) << queries[q];
        std::vector<std::string> s;
        for (const auto& d : *r) s.push_back(d.ToString());
        if (first) {
          baseline[q] = std::move(s);
        } else {
          EXPECT_EQ(s, baseline[q])
              << queries[q] << " header_skip=" << header_skip
              << " tag_summaries=" << tag_summaries;
        }
      }
      first = false;
    }
  }
}

TEST(QueryEngineTest, AllStrategiesAgree) {
  auto f = MakeFixture(kBibXml);
  const char* queries[] = {
      "/bib/book[author/last=\"Stevens\"]",
      "//book[price<100]/title",
      "/bib/book/author",
  };
  for (const char* query : queries) {
    std::vector<std::vector<std::string>> results;
    for (StartStrategy strategy :
         {StartStrategy::kAuto, StartStrategy::kScan,
          StartStrategy::kTagIndex, StartStrategy::kValueIndex}) {
      QueryOptions options;
      options.strategy = strategy;
      auto r = f.engine->Evaluate(query, options);
      ASSERT_TRUE(r.ok()) << query;
      std::vector<std::string> s;
      for (const auto& d : *r) s.push_back(d.ToString());
      results.push_back(std::move(s));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0], results[i]) << query << " strategy " << i;
    }
  }
}

TEST(QueryEngineTest, JoinModesAgree) {
  auto f = MakeFixture(kBibXml, /*page_size=*/128);
  for (const char* query :
       {"//book//last", "/bib//author[last=\"Stevens\"]",
        "//editor/following::book", "//book[.//first]"}) {
    QueryOptions dewey, interval;
    dewey.join_mode = JoinMode::kDewey;
    interval.join_mode = JoinMode::kInterval;
    auto a = f.engine->Evaluate(query, dewey);
    auto b = f.engine->Evaluate(query, interval);
    ASSERT_TRUE(a.ok() && b.ok()) << query;
    EXPECT_EQ(a->size(), b->size()) << query;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].ToString(), (*b)[i].ToString());
    }
  }
}

TEST(QueryEngineTest, StatsReportStrategy) {
  auto f = MakeFixture(kBibXml);
  QueryOptions options;
  ASSERT_TRUE(
      f.engine->Evaluate("//book[author/last=\"Stevens\"]", options).ok());
  const QueryStats& stats = f.engine->last_stats();
  ASSERT_EQ(stats.trees.size(), 2u);  // Virtual-root tree + book tree.
  EXPECT_EQ(stats.trees[1].strategy, StartStrategy::kValueIndex);
  EXPECT_EQ(stats.results, 2u);
}

TEST(QueryEngineTest, LastStatsCountsAreNonzeroForMatchingQueries) {
  auto f = MakeFixture(kBibXml);
  for (const char* query :
       {"//book[author/last=\"Stevens\"]", "/bib/book/title",
        "//author[last=\"Abiteboul\"]"}) {
    auto result = f.engine->Evaluate(query);
    ASSERT_TRUE(result.ok()) << query;
    ASSERT_FALSE(result->empty()) << query;
    const QueryStats& stats = f.engine->last_stats();
    EXPECT_EQ(stats.results, result->size()) << query;
    ASSERT_FALSE(stats.trees.empty()) << query;
    for (size_t t = 0; t < stats.trees.size(); ++t) {
      // A query with results matched in every NoK tree: each tree saw at
      // least one candidate and produced at least one binding.
      EXPECT_GT(stats.trees[t].candidates, 0u)
          << query << " tree " << t;
      EXPECT_GT(stats.trees[t].bindings, 0u) << query << " tree " << t;
      EXPECT_GE(stats.trees[t].candidates, stats.trees[t].bindings)
          << query << " tree " << t;
    }
  }
}

TEST(QueryEngineTest, HitRatioReproducibleAcrossIdenticalRuns) {
  // Small pages so one query touches several tree pages.
  auto f = MakeFixture(kBibXml, /*page_size=*/128);
  const std::string query = "//book[author/last=\"Stevens\"][price<100]";
  BufferPool* pool = f.store->tree()->buffer_pool();

  ASSERT_TRUE(f.store->DropCaches().ok());  // Calls ResetStats() too.
  ASSERT_TRUE(f.engine->Evaluate(query).ok());
  const BufferPool::Stats first = pool->stats();
  EXPECT_GT(first.fetches, 0u);
  EXPECT_EQ(first.hits + first.misses, first.fetches);

  ASSERT_TRUE(f.store->DropCaches().ok());
  ASSERT_TRUE(f.engine->Evaluate(query).ok());
  const BufferPool::Stats second = pool->stats();

  // Cold-start evaluation is deterministic, so the I/O profile — and with
  // it the hit ratio — must reproduce exactly.
  EXPECT_EQ(first.fetches, second.fetches);
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.misses, second.misses);
  EXPECT_EQ(first.disk_reads, second.disk_reads);
}

TEST(QueryEngineTest, AbsentTagsReturnEmpty) {
  auto f = MakeFixture(kBibXml);
  for (const char* query : {"//nonexistent", "/bib/nothing/at/all",
                            "//book[zzz=\"1\"]"}) {
    auto r = f.engine->Evaluate(query);
    ASSERT_TRUE(r.ok()) << query;
    EXPECT_TRUE(r->empty()) << query;
  }
}

TEST(QueryEngineTest, SmallPagesSameResults) {
  auto big = MakeFixture(kBibXml, kDefaultPageSize);
  auto small = MakeFixture(kBibXml, 64);
  for (const char* query :
       {"//book[price<100]", "/bib/book/author/last", "//first"}) {
    auto a = big.engine->Evaluate(query);
    auto b = small.engine->Evaluate(query);
    ASSERT_TRUE(a.ok() && b.ok()) << query;
    ASSERT_EQ(a->size(), b->size()) << query;
  }
}

TEST(QueryEngineTest, PathIndexAnchorsUnselectiveTags) {
  // Section 8 extension: the tag 'x' is everywhere, but the rooted path
  // /a/b/x is rare.  The path index must anchor the query on the path.
  std::string xml = "<a><b><x>hit</x></b>";
  for (int i = 0; i < 200; ++i) xml += "<c><x>miss</x></c>";
  xml += "</a>";
  auto f = MakeFixture(xml);

  QueryOptions options;
  options.index_fraction = 0.5;  // Generous cutoff for the small doc.
  auto r = f.engine->Evaluate("/a/b/x", options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].ToString(), "0.0.0");
  const auto& stats = f.engine->last_stats();
  EXPECT_EQ(stats.trees[0].strategy, StartStrategy::kPathIndex);
  EXPECT_EQ(stats.trees[0].candidates, 1u);  // One /a/b/x node.

  // Forcing the path strategy and disabling it both stay correct.
  QueryOptions forced;
  forced.strategy = StartStrategy::kPathIndex;
  auto r2 = f.engine->Evaluate("/a/b/x", forced);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
  QueryOptions disabled;
  disabled.use_path_index = false;
  auto r3 = f.engine->Evaluate("/a/b/x", disabled);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 1u);
  EXPECT_NE(f.engine->last_stats().trees[0].strategy,
            StartStrategy::kPathIndex);
}

TEST(QueryEngineTest, PathIndexSkippedWhenPositionsStale) {
  // Run on both navigation tiers: with stale positions the BP tier
  // resolves index hits by Dewey walks, with fresh ones by mapping their
  // stored positions to BP bits, and both must answer like the paged
  // tier.
  std::string xml = "<a><b><x>hit</x></b><c><x>miss</x></c></a>";
  auto paged = MakeFixture(xml);
  auto bp = MakeFixture(xml, kDefaultPageSize, NavMode::kBp);
  const std::vector<std::string> queries = {
      "/a/b/x", "//c/x", "/a/*/x", "//x", "/a/b[x=\"hit\"]",
      "//x/parent::c",
      // Sibling order forces whole-tree matching from the hits' ancestors.
      "//a/c[preceding-sibling::b]/x"};
  QueryOptions options;
  options.index_fraction = 0.5;
  auto expect_tiers_agree = [&] {
    for (const std::string& query : queries) {
      auto want = paged.engine->Evaluate(query, options);
      auto got = bp.engine->Evaluate(query, options);
      ASSERT_TRUE(want.ok()) << query << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      EXPECT_EQ(*got, *want) << query;
    }
  };
  for (EngineFixture* f : {&paged, &bp}) {
    ASSERT_TRUE(f->store->InsertSubtree(DeweyId({0}), 0, "<d/>").ok());
    EXPECT_FALSE(f->store->positions_fresh());
    auto r = f->engine->Evaluate("/a/b/x", options);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u);
    EXPECT_NE(f->engine->last_stats().trees[0].strategy,
              StartStrategy::kPathIndex);
  }
  expect_tiers_agree();
  // After a refresh the path index is consistent again.
  for (EngineFixture* f : {&paged, &bp}) {
    ASSERT_TRUE(f->store->RefreshPositions().ok());
    auto r2 = f->engine->Evaluate("/a/b/x", options);
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->size(), 1u);
    EXPECT_EQ(f->engine->last_stats().trees[0].strategy,
              StartStrategy::kPathIndex);
  }
  expect_tiers_agree();
  EXPECT_GT(bp.store->tree()->nav_stats().bp_steps, 0u);
}

// The main differential property test: random documents x random queries
// x all strategies, against the brute-force oracle.
class EngineVsOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineVsOracle, RandomQueriesOnRandomDocuments) {
  Random rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const std::string xml = testutil::RandomXml(&rng);
    auto f = MakeFixture(xml, /*page_size=*/128);
    for (int q = 0; q < 12; ++q) {
      const std::string query = testutil::RandomQuery(&rng);
      auto pattern = ParseXPath(query);
      if (!pattern.ok()) continue;  // Generator occasionally overshoots.

      auto want = OracleEvaluateDewey(query, f.dom);
      ASSERT_TRUE(want.ok()) << query;
      std::vector<std::string> want_s;
      for (const auto& d : *want) want_s.push_back(d.ToString());

      for (StartStrategy strategy : {StartStrategy::kAuto,
                                     StartStrategy::kScan}) {
        QueryOptions options;
        options.strategy = strategy;
        options.join_mode = rng.Bernoulli(0.5) ? JoinMode::kDewey
                                               : JoinMode::kInterval;
        auto got = f.engine->Evaluate(query, options);
        ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
        std::vector<std::string> got_s;
        for (const auto& d : *got) got_s.push_back(d.ToString());
        EXPECT_EQ(got_s, want_s)
            << "query " << query << " strategy "
            << static_cast<int>(strategy) << "\nxml " << xml;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsOracle,
                         ::testing::Values(1000, 2000, 3000, 4000));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Rewritten axes end to end (engine vs oracle).

namespace nok {
namespace {

class RewrittenAxes : public ::testing::TestWithParam<const char*> {};

TEST_P(RewrittenAxes, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    ParentAndPrecedingSibling, RewrittenAxes,
    ::testing::Values("/bib/book/author/parent::book/title",
                      "//last/parent::author",
                      "/bib/book/price/preceding-sibling::title",
                      "//first/preceding-sibling::last",
                      "/bib/book/author/parent::*/price",
                      "//affiliation/parent::editor/last"));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// The preceding:: axis (global mirror of following).

namespace nok {
namespace {

class PrecedingAxis : public ::testing::TestWithParam<const char*> {};

TEST_P(PrecedingAxis, MatchesOracle) {
  auto f = MakeFixture(kBibXml);
  ExpectMatchesOracle(&f, GetParam());
  // Both join modes must agree for the new relation too.
  QueryOptions interval;
  interval.join_mode = JoinMode::kInterval;
  ExpectMatchesOracle(&f, GetParam(), interval);
}

INSTANTIATE_TEST_SUITE_P(
    Paperish, PrecedingAxis,
    ::testing::Values("//editor/preceding::book",
                      "/bib/book/editor/preceding::author",
                      "//book[preceding::editor]",
                      "//author[last=\"Suciu\"]/preceding::title",
                      "//price/preceding::price"));

}  // namespace
}  // namespace nok

// ---------------------------------------------------------------------------
// Arc-scoped `//` joins.  On a wide document where one side of the arc is
// selective, both directions touch only the few subtrees that side
// yields, on both navigation tiers: a value probe bounds the descendant
// scan (down), and a rare child tree anchors its parent on the
// ancestors of its roots (up).

namespace nok {
namespace {

constexpr uint64_t kWideChildren = 5000;

/// <r> with kWideChildren <c><t/></c> children; three of them also hold
/// <k>v</k> and three others <p><m/></p>.
std::string WideArcDocument() {
  std::string xml = "<r>";
  for (uint64_t i = 0; i < kWideChildren; ++i) {
    xml += "<c><t/>";
    if (i % 1667 == 5) xml += "<k>v</k>";
    if (i % 1667 == 100) xml += "<p><m/></p>";
    xml += "</c>";
  }
  return xml + "</r>";
}

std::vector<std::string> NavigationalAnswer(const DomTree& dom,
                                            const std::string& query) {
  auto pattern = ParseXPath(query);
  EXPECT_TRUE(pattern.ok()) << query;
  NavigationalEngine nav(&dom);
  auto nodes = nav.Evaluate(*pattern);
  EXPECT_TRUE(nodes.ok()) << query << ": " << nodes.status().ToString();
  std::vector<std::string> out;
  for (const DomNode* node : *nodes) out.push_back(DomDewey(node).ToString());
  return out;
}

class ArcScopedWork : public ::testing::TestWithParam<NavMode> {};

TEST_P(ArcScopedWork, BothDirectionsStayInsideTheSelectiveSubtrees) {
  const NavMode mode = GetParam();
  // Small pages, so a walk over every <c> costs hundreds of pages.
  auto f = MakeFixture(WideArcDocument(), 256, mode);
  constexpr uint64_t kHits = 3;
  constexpr uint64_t kSubtree = 4;  // c, t and the selective pair.
  struct Case {
    const char* query;
    const char* scoping;  // The operator that confines the arc.
  };
  for (const Case& c : {Case{"/r/c[k=\"v\"]//t", "ScopedScan"},
                        Case{"/r/c//p/m", "ArcAncestors"}}) {
    SCOPED_TRACE(std::string(c.query) + " on " + NavModeName(mode));
    f.store->tree()->ResetNavStats();
    auto got = f.engine->Evaluate(c.query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<std::string> got_s;
    for (const DeweyId& id : *got) got_s.push_back(id.ToString());
    EXPECT_EQ(got_s, NavigationalAnswer(f.dom, c.query));
    EXPECT_EQ(got_s.size(), kHits);

    const ExecutionTrace& trace = f.engine->last_trace();
    const std::string explain = f.engine->ExplainLast();
    bool scoped = false;
    for (const OperatorStats& op : trace.operators) {
      scoped = scoped || op.op == c.scoping;
      // No operator walks the 5,000 <c>: every row set stays tiny.
      EXPECT_LE(op.rows_out, 12 * kHits) << op.op << "\n" << explain;
    }
    EXPECT_TRUE(scoped) << explain;
    ASSERT_FALSE(trace.operators.empty());
    EXPECT_LE(trace.operators.front().rows_out, kHits) << explain;
    const uint64_t budget = 16 * kHits * kSubtree;
    if (mode == NavMode::kBp) {
      EXPECT_LE(trace.bp_steps, budget) << explain;
    } else {
      EXPECT_LE(f.store->tree()->nav_stats().pages_scanned, budget)
          << explain;
    }
  }
}

// Probe hits whose span roots nest: the inner span lies inside the outer
// one, so it is dropped and every <t> below both comes out exactly once.
TEST_P(ArcScopedWork, NestedSpansYieldEachRootOnce) {
  std::string xml =
      "<r><a><k>v</k><t/><a><k>v</k><t/><a><t/></a></a><t/></a>";
  for (int i = 0; i < 200; ++i) xml += "<a><t/></a>";
  xml += "</r>";
  auto f = MakeFixture(xml, 256, GetParam());
  const std::string query = "//a[k=\"v\"]//t";
  ExpectMatchesOracle(&f, query);
  bool scoped = false;
  for (const OperatorStats& op : f.engine->last_trace().operators) {
    if (op.op != "ScopedScan") continue;
    scoped = true;
    EXPECT_EQ(op.rows_in, 1u);   // Two hits, one outermost span.
    EXPECT_EQ(op.rows_out, 4u);  // Each <t> inside it once.
  }
  EXPECT_TRUE(scoped) << f.engine->ExplainLast();
}

INSTANTIATE_TEST_SUITE_P(BothTiers, ArcScopedWork,
                         ::testing::Values(NavMode::kPaged, NavMode::kBp));

}  // namespace
}  // namespace nok
