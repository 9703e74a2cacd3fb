#include "encoding/bp_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/random.h"
#include "datagen/dataset_gen.h"
#include "encoding/document_store.h"
#include "encoding/string_store.h"
#include "nok/query_engine.h"
#include "tests/test_util.h"

namespace nok {
namespace {

// ---------------------------------------------------------------------
// Naive O(n) reference implementations over a parenthesis string.

uint64_t NaiveRank1(const std::string& parens, uint64_t pos) {
  uint64_t rank = 0;
  for (uint64_t i = 0; i < pos; ++i) {
    if (parens[i] == '(') ++rank;
  }
  return rank;
}

uint64_t NaiveSelect1(const std::string& parens, uint64_t rank) {
  uint64_t seen = 0;
  for (uint64_t i = 0; i < parens.size(); ++i) {
    if (parens[i] == '(' && seen++ == rank) return i;
  }
  return ~uint64_t{0};
}

int64_t NaiveExcess(const std::string& parens, uint64_t pos) {
  int64_t e = 0;
  for (uint64_t i = 0; i <= pos; ++i) {
    e += parens[i] == '(' ? 1 : -1;
  }
  return e;
}

uint64_t NaiveFindClose(const std::string& parens, uint64_t pos) {
  int64_t depth = 0;
  for (uint64_t i = pos; i < parens.size(); ++i) {
    depth += parens[i] == '(' ? 1 : -1;
    if (depth == 0) return i;
  }
  return ~uint64_t{0};
}

std::optional<uint64_t> NaiveEnclose(const std::string& parens,
                                     uint64_t pos) {
  int64_t depth = 0;
  for (uint64_t i = pos; i-- > 0;) {
    depth += parens[i] == '(' ? 1 : -1;
    if (parens[i] == '(' && depth > 0) return i;
  }
  return std::nullopt;
}

/// A random balanced parenthesis string with `nodes` node pairs: a
/// depth-bounded random walk that spends its opens with probability
/// proportional to the remaining budget.
std::string RandomParens(Random* rng, uint64_t nodes) {
  std::string out = "(";
  uint64_t opened = 1, closed = 0;
  int64_t depth = 1;
  while (out.size() < 2 * nodes) {
    const bool can_open = opened < nodes;
    // The root close is emitted last: never drop to depth 0 early.
    const bool can_close = depth > 1;
    if (can_open && (!can_close || rng->Uniform(2) == 0)) {
      out += '(';
      ++opened;
      ++depth;
    } else if (can_close) {
      out += ')';
      ++closed;
      --depth;
    } else {
      break;
    }
  }
  while (depth > 0) {
    out += ')';
    ++closed;
    --depth;
  }
  EXPECT_EQ(out.size(), 2 * opened);
  return out;
}

std::vector<TagId> RandomTags(Random* rng, uint64_t nodes, int pool) {
  std::vector<TagId> tags;
  tags.reserve(nodes);
  for (uint64_t i = 0; i < nodes; ++i) {
    tags.push_back(static_cast<TagId>(1 + rng->Uniform(
                                              static_cast<uint64_t>(pool))));
  }
  return tags;
}

// ---------------------------------------------------------------------
// Golden tests on a hand-built string.
//
//   pos:   0123456789
//   bits:  (()(()()))
//
// A root with two children; the second child has two leaf children.

std::unique_ptr<BpIndex> Golden() {
  auto bp = BpIndex::FromParens("(()(()()))", {10, 20, 30, 40, 50}, 7);
  EXPECT_TRUE(bp.ok()) << bp.status().ToString();
  return std::move(bp).ValueOrDie();
}

TEST(BpIndexTest, GoldenShape) {
  auto bp = Golden();
  EXPECT_EQ(bp->node_count(), 5u);
  EXPECT_EQ(bp->bit_count(), 10u);
  EXPECT_EQ(bp->epoch(), 7u);
  EXPECT_GT(bp->MemoryBytes(), 0u);
}

TEST(BpIndexTest, GoldenRankSelectExcess) {
  auto bp = Golden();
  EXPECT_TRUE(bp->IsOpen(0));
  EXPECT_FALSE(bp->IsOpen(2));
  EXPECT_EQ(bp->Rank1(0), 0u);
  EXPECT_EQ(bp->Rank1(4), 3u);
  EXPECT_EQ(bp->Rank1(10), 5u);
  EXPECT_EQ(bp->Select1(0), 0u);
  EXPECT_EQ(bp->Select1(1), 1u);
  EXPECT_EQ(bp->Select1(2), 3u);
  EXPECT_EQ(bp->Select1(3), 4u);
  EXPECT_EQ(bp->Select1(4), 6u);
  EXPECT_EQ(bp->Excess(0), 1);
  EXPECT_EQ(bp->Excess(3), 2);
  EXPECT_EQ(bp->Excess(4), 3);
  EXPECT_EQ(bp->Excess(9), 0);
}

TEST(BpIndexTest, GoldenFindCloseEnclose) {
  auto bp = Golden();
  EXPECT_EQ(bp->FindClose(0), 9u);
  EXPECT_EQ(bp->FindClose(1), 2u);
  EXPECT_EQ(bp->FindClose(3), 8u);
  EXPECT_EQ(bp->FindClose(4), 5u);
  EXPECT_EQ(bp->FindClose(6), 7u);
  EXPECT_FALSE(bp->Enclose(0).has_value());
  EXPECT_EQ(bp->Enclose(1), std::optional<uint64_t>(0));
  EXPECT_EQ(bp->Enclose(3), std::optional<uint64_t>(0));
  EXPECT_EQ(bp->Enclose(4), std::optional<uint64_t>(3));
  EXPECT_EQ(bp->Enclose(6), std::optional<uint64_t>(3));
}

TEST(BpIndexTest, GoldenTreeSteps) {
  auto bp = Golden();
  EXPECT_EQ(bp->Depth(0), 1);
  EXPECT_EQ(bp->Depth(4), 3);
  EXPECT_EQ(bp->FirstChild(0), std::optional<uint64_t>(1));
  EXPECT_FALSE(bp->FirstChild(1).has_value());
  EXPECT_EQ(bp->FirstChild(3), std::optional<uint64_t>(4));
  EXPECT_EQ(bp->FollowingSibling(1), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->FollowingSibling(3).has_value());
  EXPECT_EQ(bp->FollowingSibling(4), std::optional<uint64_t>(6));
  EXPECT_EQ(bp->Parent(4), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->Parent(0).has_value());
}

TEST(BpIndexTest, GoldenTagsAndFusedScan) {
  auto bp = Golden();
  EXPECT_EQ(bp->TagAt(0), 10);
  EXPECT_EQ(bp->TagAt(3), 30);
  EXPECT_EQ(bp->TagAt(6), 50);
  EXPECT_EQ(bp->TagAtRank(4), 50);
  uint64_t skipped = 0;
  // Starting *after* pos 0: the next node tagged 30 is at pos 3.
  EXPECT_EQ(bp->NextOpenWithTag(0, 30, &skipped),
            std::optional<uint64_t>(3));
  // No node after pos 3 carries tag 20.
  EXPECT_FALSE(bp->NextOpenWithTag(3, 20, &skipped).has_value());
  EXPECT_EQ(bp->NextOpen(0), std::optional<uint64_t>(1));
  EXPECT_EQ(bp->NextOpen(1), std::optional<uint64_t>(3));
  EXPECT_FALSE(bp->NextOpen(6).has_value());
}

TEST(BpIndexTest, RejectsUnbalancedParens) {
  EXPECT_FALSE(BpIndex::FromParens("(()", {}, 0).ok());
  EXPECT_FALSE(BpIndex::FromParens("())(", {}, 0).ok());
  EXPECT_FALSE(BpIndex::FromParens(")(", {}, 0).ok());
}

// ---------------------------------------------------------------------
// Randomized cross-check against the naive references.  Sizes straddle
// the support-structure boundaries: sub-word, one word, many words (the
// segment tree and the select samples only matter past 64 bits / 64
// opens).  Seeded, so failures are bit-reproducible.

TEST(BpIndexTest, RandomizedMatchesNaiveReference) {
  Random rng(20260808);
  for (const uint64_t nodes : {1u, 3u, 17u, 64u, 65u, 333u, 2500u}) {
    for (int round = 0; round < 3; ++round) {
      const std::string parens = RandomParens(&rng, nodes);
      auto bp_or = BpIndex::FromParens(
          parens, RandomTags(&rng, nodes, 4), 0);
      ASSERT_TRUE(bp_or.ok()) << bp_or.status().ToString();
      const BpIndex& bp = *bp_or.ValueOrDie();
      ASSERT_EQ(bp.node_count(), nodes);
      ASSERT_EQ(bp.bit_count(), parens.size());

      for (uint64_t pos = 0; pos < parens.size(); ++pos) {
        ASSERT_EQ(bp.IsOpen(pos), parens[pos] == '(')
            << "seedpos " << pos << " n=" << nodes;
        ASSERT_EQ(bp.Rank1(pos), NaiveRank1(parens, pos)) << pos;
        ASSERT_EQ(bp.Excess(pos), NaiveExcess(parens, pos)) << pos;
        if (parens[pos] == '(') {
          ASSERT_EQ(bp.FindClose(pos), NaiveFindClose(parens, pos)) << pos;
          ASSERT_EQ(bp.Enclose(pos), NaiveEnclose(parens, pos)) << pos;
        }
      }
      ASSERT_EQ(bp.Rank1(parens.size()), nodes);
      for (uint64_t rank = 0; rank < nodes; ++rank) {
        ASSERT_EQ(bp.Select1(rank), NaiveSelect1(parens, rank)) << rank;
      }
    }
  }
}

TEST(BpIndexTest, RandomizedFusedTagScanMatchesNaive) {
  Random rng(424242);
  const uint64_t nodes = 700;  // > 10 SWAR blocks.
  const std::string parens = RandomParens(&rng, nodes);
  // A rare tag (99) sprinkled over a common filler tag, so whole blocks
  // actually get skipped.
  std::vector<TagId> tags(nodes, 1);
  for (int i = 0; i < 5; ++i) {
    tags[rng.Uniform(nodes)] = 99;
  }
  auto bp_or = BpIndex::FromParens(parens, tags, 0);
  ASSERT_TRUE(bp_or.ok());
  const BpIndex& bp = *bp_or.ValueOrDie();

  for (const TagId want : {TagId{99}, TagId{1}, TagId{7}}) {
    uint64_t pos = 0;
    uint64_t naive_rank = 1;
    for (;;) {
      uint64_t skipped = 0;
      const auto got = bp.NextOpenWithTag(pos, want, &skipped);
      // Naive: next open strictly after pos with the wanted tag.
      std::optional<uint64_t> expect;
      for (uint64_t r = naive_rank; r < nodes; ++r) {
        if (tags[r] == want) {
          expect = NaiveSelect1(parens, r);
          break;
        }
      }
      ASSERT_EQ(got, expect) << "tag " << want << " from " << pos;
      if (!got.has_value()) break;
      pos = *got;
      naive_rank = bp.Rank1(pos + 1);
    }
  }
}

// ---------------------------------------------------------------------
// Serialization.

TEST(BpIndexTest, SerializeDeserializeRoundTrip) {
  Random rng(99);
  const uint64_t nodes = 300;
  const std::string parens = RandomParens(&rng, nodes);
  auto bp_or =
      BpIndex::FromParens(parens, RandomTags(&rng, nodes, 6), 41);
  ASSERT_TRUE(bp_or.ok());
  const BpIndex& bp = *bp_or.ValueOrDie();

  const std::string bytes = bp.Serialize();
  auto back_or = BpIndex::Deserialize(bytes);
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const BpIndex& back = *back_or.ValueOrDie();
  EXPECT_EQ(back.node_count(), bp.node_count());
  EXPECT_EQ(back.bit_count(), bp.bit_count());
  EXPECT_EQ(back.epoch(), 41u);
  for (uint64_t pos = 0; pos < bp.bit_count(); ++pos) {
    ASSERT_EQ(back.IsOpen(pos), bp.IsOpen(pos)) << pos;
    if (bp.IsOpen(pos)) {
      ASSERT_EQ(back.TagAt(pos), bp.TagAt(pos)) << pos;
      ASSERT_EQ(back.FindClose(pos), bp.FindClose(pos)) << pos;
    }
  }
  // Deterministic encode: a round-tripped index re-serializes
  // byte-identically.
  EXPECT_EQ(back.Serialize(), bytes);
}

TEST(BpIndexTest, DeserializeRejectsCorruption) {
  auto bp = Golden();
  const std::string bytes = bp->Serialize();
  // Any single flipped byte must be rejected: header bytes break the
  // magic/version/shape checks, payload bytes break the CRC.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(BpIndex::Deserialize(bad).ok()) << "byte " << i;
  }
  EXPECT_FALSE(BpIndex::Deserialize(bytes.substr(0, 10)).ok());
  EXPECT_FALSE(BpIndex::Deserialize(bytes + "x").ok());
}

// ---------------------------------------------------------------------
// Store-level: bp navigation must answer every query exactly like the
// paged tier, and the sidecar must persist and invalidate correctly.

TEST(BpIndexTest, BpModeMatchesPagedOnRandomDocuments) {
  Random rng(777);
  for (int doc = 0; doc < 6; ++doc) {
    testutil::RandomDocOptions doc_options;
    doc_options.max_nodes = 150;
    const std::string xml = testutil::RandomXml(&rng, doc_options);

    DocumentStore::Options paged_options;
    paged_options.page_size = 512;
    auto paged = DocumentStore::Build(xml, paged_options);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();

    DocumentStore::Options bp_options = paged_options;
    bp_options.nav_mode = NavMode::kBp;
    auto bp = DocumentStore::Build(xml, bp_options);
    ASSERT_TRUE(bp.ok()) << bp.status().ToString();

    QueryEngine paged_engine(paged->get());
    QueryEngine bp_engine(bp->get());
    bool saw_results = false;
    for (int q = 0; q < 20; ++q) {
      const std::string query = testutil::RandomQuery(&rng, doc_options);
      auto want = paged_engine.Evaluate(query);
      auto got = bp_engine.Evaluate(query);
      ASSERT_EQ(want.ok(), got.ok())
          << query << ": " << want.status().ToString() << " vs "
          << got.status().ToString();
      if (!want.ok()) continue;
      ASSERT_EQ(*want, *got) << query;
      saw_results = saw_results || !want->empty();
    }
    // The bp store navigated through the BP tier (a doc whose random
    // queries all came up empty may legitimately skip navigation: the
    // path synopsis answers schema-impossible queries with no I/O).
    if (saw_results) {
      EXPECT_GT((*bp)->tree()->nav_stats().bp_steps, 0u);
    }
  }
}

TEST(BpIndexTest, SidecarPersistsAndGoesStale) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_bpx_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = NavMode::kBp;
  {
    auto store = DocumentStore::Build(
        "<a><b><c/></b><b/><d>x</d></a>", options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());
    // Build materializes eagerly from the page chain, not the sidecar.
    EXPECT_FALSE((*store)->bp_loaded_from_sidecar());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/tree.bpx"));
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->bp_loaded_from_sidecar());
    uint64_t nodes_before = 0;
    {
      auto bp = (*store)->bp_index();
      ASSERT_TRUE(bp.ok());
      EXPECT_EQ((*bp)->node_count(), (*store)->stats().node_count);
      nodes_before = (*bp)->node_count();
    }  // The insert below invalidates this pointer.

    // A structural update invalidates the in-memory index; the rebuilt
    // one reflects the new topology.
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0}), 0, "<e/>").ok());
    auto bp2 = (*store)->bp_index();
    ASSERT_TRUE(bp2.ok());
    EXPECT_FALSE((*store)->bp_loaded_from_sidecar());
    EXPECT_EQ((*bp2)->node_count(), nodes_before + 1);
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    // The Flush above re-persisted the sidecar for the new generation.
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->bp_loaded_from_sidecar());
  }
  {
    // A flipped sidecar byte fails the CRC: the open silently rebuilds
    // from the page chain instead of trusting the damaged file.
    std::fstream f(dir + "/tree.bpx",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(40);
    const char flipped = static_cast<char>(f.get() ^ 0xff);
    f.seekp(40);
    f.put(flipped);
    f.close();
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE((*store)->bp_loaded_from_sidecar());
    auto bp = (*store)->bp_index();
    ASSERT_TRUE(bp.ok());
    EXPECT_EQ((*bp)->node_count(), (*store)->stats().node_count);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Position mapping: an index hit's global position, through the symbol
// counts the page headers imply, lands on the BP open of the same node.

/// Walks B+i in key (document) order: the i-th entry is the node of
/// preorder rank i, so its stored position must map to the i-th open.
void ExpectPositionsMapToPreorderOpens(DocumentStore* store) {
  ASSERT_TRUE(store->positions_fresh());
  auto bp = store->bp_index();
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  BTreeIterator it = store->id_index()->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t rank = 0;
  while (it.Valid()) {
    uint64_t pos = 0, offset = 0;
    bool has_value = false;
    ASSERT_TRUE(
        index_keys::ParseIdPayload(it.value(), &pos, &has_value, &offset)
            .ok());
    auto bit = store->tree()->SymbolRank(pos);
    ASSERT_TRUE(bit.ok()) << bit.status().ToString();
    ASSERT_EQ(*bit, (*bp)->Select1(rank)) << "preorder rank " << rank;
    ++rank;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(rank, (*bp)->node_count());
}

/// True when the engine's last query matched some tree from index hits.
bool RanAnchored(const QueryEngine& engine) {
  for (const OperatorStats& op : engine.last_trace().operators) {
    if (op.op == "NokMatch" && op.detail == "anchored") return true;
  }
  return false;
}

TEST(BpPositionMappingTest, HeaderDerivedRanksLandOnPreorderOpens) {
  GenOptions gen;
  gen.scale = 0.005;
  const GeneratedDataset catalog = GenerateDataset(Dataset::kCatalog, gen);
  DocumentStore::Options options;
  options.page_size = 512;  // Many pages, so the per-page prefix matters.
  options.nav_mode = NavMode::kBp;
  auto store = DocumentStore::Build(catalog.xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_GT((*store)->tree()->chain_length(), 10u);
  ExpectPositionsMapToPreorderOpens(store->get());

  // Inserts larger than a page's reserve split pages: the spilled pages
  // are allocated at the end of the file, so chain order stops matching
  // PageId order — exactly what the chain-order prefix must absorb.
  std::string fragment = "<attributes>";
  for (int i = 0; i < 40; ++i) fragment += "<weight>1</weight>";
  fragment += "</attributes>";
  for (uint32_t item = 0; item < 6; ++item) {
    const Status s =
        (*store)->InsertSubtree(DeweyId({0, 0, item * 2}), 0, fragment);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  StringStore* tree = (*store)->tree();
  bool reordered = false;
  for (size_t i = 1; i < tree->chain_length(); ++i) {
    reordered = reordered || tree->chain_page(i) < tree->chain_page(i - 1);
  }
  ASSERT_TRUE(reordered) << "no insert split a page";
  ASSERT_FALSE((*store)->positions_fresh());
  ASSERT_TRUE((*store)->RefreshPositions().ok());
  ExpectPositionsMapToPreorderOpens(store->get());
}

TEST(BpPositionMappingTest, InconsistentUsedCountIsATypedError) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("nokxml_bpmap_" + std::to_string(::getpid())))
          .string();
  DocumentStore::Options options;
  options.dir = dir;
  options.page_size = 512;
  options.nav_mode = NavMode::kBp;
  GenOptions gen;
  gen.scale = 0.002;
  const GeneratedDataset catalog = GenerateDataset(Dataset::kCatalog, gen);
  // Table 2's Q9 shape: anchored on the value-index hits of the needle.
  const std::string query = catalog.entry_path + "[" + catalog.needle_tag_a +
                            "=\"" + catalog.needle_low_a + "\"]/" +
                            catalog.detail_a;

  std::vector<DeweyId> want;
  {
    std::filesystem::remove_all(dir);
    auto store = DocumentStore::Build(catalog.xml, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Flush().ok());  // Persists tree.bpx.
    QueryEngine engine(store->get());
    auto got = engine.Evaluate(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_FALSE(got->empty());
    ASSERT_TRUE(RanAnchored(engine)) << engine.ExplainLast();
    want = *got;
  }

  // A raw store has no page checksum, so a damaged header reaches the
  // in-memory mirror.  +1 leaves the page with no consistent count; +3
  // keeps it consistent but the counts no longer sum to two per node.
  for (const uint16_t bump : {1, 3}) {
    const uint64_t used_offset = 2 * options.page_size + 6;  // Page 2.
    char raw[2];
    {
      std::fstream f(dir + "/tree.nok",
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekg(static_cast<std::streamoff>(used_offset));
      f.read(raw, 2);
      EncodeFixed16(raw, static_cast<uint16_t>(DecodeFixed16(raw) + bump));
      f.seekp(static_cast<std::streamoff>(used_offset));
      f.write(raw, 2);
    }
    {
      auto store = DocumentStore::OpenDir(options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)->bp_loaded_from_sidecar());
      QueryEngine engine(store->get());
      auto got = engine.Evaluate(query);
      ASSERT_FALSE(got.ok()) << "bump " << bump << " answered "
                             << got->size() << " rows";
      EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    }
    // Undo the damage for the next round.
    std::fstream f(dir + "/tree.nok",
                   std::ios::in | std::ios::out | std::ios::binary);
    EncodeFixed16(raw, static_cast<uint16_t>(DecodeFixed16(raw) - bump));
    f.seekp(static_cast<std::streamoff>(used_offset));
    f.write(raw, 2);
  }
  {
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    auto got = engine.Evaluate(query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Work counters: anchored matching on the BP tier costs a constant number
// of steps per hit and trunk level, wherever the hit sits among its
// siblings.  (A Dewey walk from the first child costs steps in the
// sibling index, so this fan-out makes it quadratic.)

TEST(BpPositionMappingTest, AnchoredStepsStayLinearOnWideFanout) {
  constexpr uint64_t kChildren = 5000;
  std::string xml = "<r>";
  for (uint64_t i = 0; i < kChildren; ++i) xml += "<c><k/></c>";
  xml += "</r>";
  DocumentStore::Options options;
  options.nav_mode = NavMode::kBp;
  auto store = DocumentStore::Build(xml, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  QueryEngine engine(store->get());
  auto got = engine.Evaluate("/r/c/k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), kChildren);
  ASSERT_TRUE(RanAnchored(engine)) << engine.ExplainLast();
  const ExecutionTrace& trace = engine.last_trace();
  constexpr uint64_t kTrunkDepth = 3;  // r / c / k
  EXPECT_LE(trace.bp_steps, 2 * kChildren * kTrunkDepth)
      << engine.ExplainLast();
}

}  // namespace
}  // namespace nok
