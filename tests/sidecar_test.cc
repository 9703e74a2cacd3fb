// One lifecycle, two sidecars: every test here runs once for tree.bpx
// (BpIndex) and once for synopsis.pds (PathSynopsis), so a rule written
// once in the shared envelope (encoding/sidecar.h) and the DocumentStore
// slot code is checked for both payloads.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "encoding/bp_index.h"
#include "encoding/document_store.h"
#include "encoding/path_synopsis.h"
#include "encoding/store_verifier.h"
#include "encoding/swmr_store.h"
#include "nok/query_engine.h"

namespace nok {
namespace {

constexpr const char* kDoc = "<a><b><c/></b><b/><d>x</d></a>";

// The golden hashes pin the on-disk bytes (Hash64 is FNV-1a): a change
// that moves them breaks every store written before it.
struct BpSidecar {
  using Type = BpIndex;
  static constexpr const char* kFile = store_files::kBpIndex;
  static constexpr size_t kGoldenSize = 50;
  static constexpr uint64_t kGoldenHash = UINT64_C(334569590309008250);

  static std::unique_ptr<BpIndex> Golden() {
    auto bp = BpIndex::FromParens("(()(()()))", {10, 20, 30, 40, 50}, 7);
    EXPECT_TRUE(bp.ok()) << bp.status().ToString();
    return std::move(bp).ValueOrDie();
  }
  static bool FromSidecar(const DocumentStore& store) {
    return store.bp_loaded_from_sidecar();
  }
  /// Node count of the in-memory copy (built on demand).
  static uint64_t NodeCount(DocumentStore* store) {
    auto bp = store->bp_index();
    EXPECT_TRUE(bp.ok()) << bp.status().ToString();
    return bp.ok() ? (*bp)->node_count() : 0;
  }
};

struct SynopsisSidecar {
  using Type = PathSynopsis;
  static constexpr const char* kFile = store_files::kSynopsis;
  static constexpr size_t kGoldenSize = 92;
  static constexpr uint64_t kGoldenHash = UINT64_C(6099289971480976731);

  static std::unique_ptr<PathSynopsis> Golden() {
    PathSynopsis::Builder builder;
    builder.Open(1);
    builder.Open(2);
    builder.Open(3);
    builder.Close();
    builder.Close();
    builder.Open(2);
    builder.Close();
    builder.Open(4);
    builder.Close();
    builder.Close();
    auto synopsis = builder.Finish(7);
    EXPECT_TRUE(synopsis.ok()) << synopsis.status().ToString();
    return std::move(synopsis).ValueOrDie();
  }
  static bool FromSidecar(const DocumentStore& store) {
    return store.synopsis_loaded_from_sidecar();
  }
  static uint64_t NodeCount(DocumentStore* store) {
    const PathSynopsis* synopsis = store->path_synopsis();
    EXPECT_NE(synopsis, nullptr);
    return synopsis != nullptr ? synopsis->node_count() : 0;
  }
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// True if the scrub reported an issue against `component`.
bool Reports(const VerifyReport& report, const std::string& component) {
  for (const VerifyIssue& issue : report.issues) {
    if (issue.component == component) return true;
  }
  return false;
}

template <typename Sidecar>
class SidecarLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("nokxml_sidecar_" + std::to_string(::getpid()) + "_" +
             info->name() + "_" + Sidecar::kFile))
               .string();
    std::filesystem::remove_all(dir_);
    // bp mode, so Build and Flush persist both sidecars.
    options_.dir = dir_;
    options_.nav_mode = NavMode::kBp;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path() const { return dir_ + "/" + Sidecar::kFile; }

  /// Builds kDoc, commits a second generation, and returns its epoch.
  uint64_t BuildStore() {
    auto store = DocumentStore::Build(kDoc, options_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return 0;
    EXPECT_TRUE((*store)->Flush().ok());
    return (*store)->epoch();
  }

  std::string dir_;
  DocumentStore::Options options_;
};

using SidecarTypes = ::testing::Types<BpSidecar, SynopsisSidecar>;
TYPED_TEST_SUITE(SidecarLifecycleTest, SidecarTypes);

TYPED_TEST(SidecarLifecycleTest, GoldenBytesAreStable) {
  const std::string bytes = TypeParam::Golden()->Serialize();
  EXPECT_EQ(bytes.size(), TypeParam::kGoldenSize);
  EXPECT_EQ(Hash64(Slice(bytes)), TypeParam::kGoldenHash)
      << "sidecar bytes changed; stores written before cannot load them";
}

TYPED_TEST(SidecarLifecycleTest, CraftedHugeNodeCountIsCorruption) {
  // A header-only file with a valid CRC claiming 2^63 nodes: sizes
  // computed from the count overflow, so only a checked size keeps the
  // decoder from allocating for it.
  const auto crafted = [](uint64_t epoch) {
    std::string bytes = TypeParam::Golden()->Serialize().substr(0, 12);
    PutFixed64(&bytes, epoch);
    PutFixed64(&bytes, uint64_t{1} << 63);
    PutFixed32(&bytes, Crc32c(Slice(bytes.data() + 12, 16)));
    return bytes;
  };
  auto parsed = TypeParam::Type::Deserialize(crafted(7));
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status().ToString();

  const uint64_t epoch = this->BuildStore();
  WriteBytes(this->path(), crafted(epoch));
  {
    auto report = VerifyStoreDir(this->dir_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(Reports(*report, TypeParam::kFile));
  }
  {
    // The open rebuilds silently from the page chain.
    auto store = DocumentStore::OpenDir(this->options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(TypeParam::FromSidecar(**store));
    EXPECT_EQ(TypeParam::NodeCount(store->get()),
              (*store)->stats().node_count);
  }
}

TYPED_TEST(SidecarLifecycleTest, StaleEpochSidecarIsNeverTrusted) {
  this->BuildStore();
  const std::string old_bytes = ReadBytes(this->path());
  {
    // Same node count, different topology and tags, next generation: only
    // the epoch tells the old sidecar apart.
    auto store = DocumentStore::OpenDir(this->options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->DeleteSubtree(DeweyId({0, 2})).ok());
    ASSERT_TRUE((*store)->InsertSubtree(DeweyId({0, 0}), 0, "<e/>").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  WriteBytes(this->path(), old_bytes);
  auto store = DocumentStore::OpenDir(this->options_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE(TypeParam::FromSidecar(**store));
  EXPECT_EQ(TypeParam::NodeCount(store->get()), (*store)->stats().node_count);
  QueryEngine engine(store->get());
  auto hits = engine.Evaluate("//b/e");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
}

TYPED_TEST(SidecarLifecycleTest, WalCommitLeavesSidecarsForRebuild) {
  this->BuildStore();
  const std::string bpx = ReadBytes(this->dir_ + "/" + store_files::kBpIndex);
  const std::string pds = ReadBytes(this->dir_ + "/" + store_files::kSynopsis);
  const auto untouched = [&] {
    return ReadBytes(this->dir_ + "/" + store_files::kBpIndex) == bpx &&
           ReadBytes(this->dir_ + "/" + store_files::kSynopsis) == pds;
  };
  uint64_t nodes = 0;
  {
    SwmrStore::Options swmr_options;
    swmr_options.store = this->options_;
    auto swmr = SwmrStore::Open(this->dir_, swmr_options);
    ASSERT_TRUE(swmr.ok()) << swmr.status().ToString();
    EXPECT_TRUE(TypeParam::FromSidecar(*(*swmr)->writer()));
    EXPECT_TRUE(TypeParam::FromSidecar(*(*swmr)->snapshot()->store()));
    ASSERT_TRUE((*swmr)->InsertSubtree(DeweyId({0}), 0, "<e/>").ok());
    ASSERT_TRUE((*swmr)->Commit().ok());
    // WAL commits carry no sidecar bytes.
    EXPECT_TRUE(untouched());
    DocumentStore* writer = (*swmr)->writer();
    EXPECT_FALSE(TypeParam::FromSidecar(*writer));
    nodes = writer->tree()->node_count();
    EXPECT_EQ(TypeParam::NodeCount(writer), nodes);
    DocumentStore* snap = (*swmr)->snapshot()->store();
    EXPECT_FALSE(TypeParam::FromSidecar(*snap));
    EXPECT_EQ(TypeParam::NodeCount(snap), nodes);
  }
  {
    // The next WAL open finds both files stale and rebuilds in memory.
    DocumentStore::Options wal_options = this->options_;
    wal_options.wal.enabled = true;
    auto store = DocumentStore::OpenDir(wal_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_FALSE(TypeParam::FromSidecar(**store));
    EXPECT_EQ(TypeParam::NodeCount(store->get()), nodes);
  }
  EXPECT_TRUE(untouched());
  // A stale pair is not damage: no open trusts it.
  auto report = VerifyStoreDir(this->dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->issues.front().detail;
}

// Every read-only path — OpenDir(read_only), queries, and the scrub —
// must open files O_RDONLY, so a store whose files are not writable
// stays usable.  Root ignores file modes; run as another user.
TEST(ReadOnlyStoreTest, ReadOnlyFilesOpenQueryAndVerify) {
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores file modes";
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("nokxml_ro_files_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = NavMode::kBp;
  {
    auto store = DocumentStore::Build(kDoc, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ASSERT_EQ(::chmod(entry.path().c_str(), 0444), 0) << entry.path();
  }
  {
    options.read_only = true;
    auto store = DocumentStore::OpenDir(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    QueryEngine engine(store->get());
    auto hits = engine.Evaluate("//b");
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    EXPECT_EQ(hits->size(), 2u);
    auto report = VerifyStoreDir(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->issues.front().detail;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nok
