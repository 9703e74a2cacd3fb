// Shared pieces of the end-to-end benchmark: the in-memory span log, the
// query pipeline called layer by layer, counter snapshots of the stats the
// library already exposes, percentile helpers and the run result.
//
// Everything here sits outside the library: the benchmark drives the store
// only through its public API and records spans around those calls.

#ifndef NOK_PERFBENCH_HARNESS_H_
#define NOK_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/dataset_gen.h"
#include "datagen/query_gen.h"
#include "encoding/dewey.h"
#include "encoding/document_store.h"
#include "nok/executor.h"
#include "storage/buffer_pool.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans.

/// Every span the benchmark records, one per layer boundary it calls
/// across.  The label is the layer's module name.
enum class SpanName : uint8_t {
  kSetup,      ///< One Build + Flush + open round.
  kBuild,      ///< DocumentStore::Build.
  kFlush,      ///< DocumentStore::Flush.
  kOpen,       ///< DocumentStore::OpenDir / SwmrStore::Open.
  kQuery,      ///< One query, root of its layer spans.
  kSnapshot,   ///< SwmrStore::snapshot.
  kParse,      ///< ParseXPath.
  kPartition,  ///< PartitionPattern + ResolvePatternTags.
  kPlan,       ///< Planner::Plan.
  kExecute,    ///< Executor::Run.
  kBatch,      ///< One update batch, root of its op and commit spans.
  kInsert,     ///< SwmrStore::InsertSubtree.
  kDelete,     ///< SwmrStore::DeleteSubtree.
  kCommit,     ///< SwmrStore::Commit.
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

const char* SpanLabel(SpanName name);

struct Span {
  SpanName name;
  int32_t parent;  ///< Index into the same log; -1 for a root span.
  uint64_t op;     ///< Query or batch id; spans of one request share it.
  int64_t start_ns;
  int64_t end_ns;
};

/// One thread's spans, kept in memory until the run ends.  Each thread
/// owns its log, so recording takes no lock.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) { spans_.reserve(1 << 14); }

  size_t Begin(SpanName name, uint64_t op);
  void End(size_t index);

  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log records nothing, so untraced code paths pay only
/// a pointer test.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t op)
      : log_(log), index_(log == nullptr ? 0 : log->Begin(name, op)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Per span name: summed self time (duration minus the time its child
/// spans cover) and span count.
struct SpanTotals {
  std::array<double, kSpanNames> self_ns{};
  std::array<uint64_t, kSpanNames> count{};

  double MeanSelfUs(SpanName name) const;
};
SpanTotals SumSpans(const std::vector<const SpanLog*>& logs);

/// Writes every span as CSV (thread,op,name,parent,start_ns,end_ns).
nok::Status WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// The query pipeline.

/// QueryEngine::EvaluatePattern's layers, called one at a time in the same
/// order — ParseXPath, PartitionPattern + ResolvePatternTags, Planner::Plan,
/// Executor::Run — each under its own span when `log` is non-null.
nok::Result<std::vector<nok::DeweyId>> EvaluateLayered(
    nok::DocumentStore* store, const std::string& xpath, SpanLog* log,
    uint64_t op, nok::ExecutionTrace* trace);

/// Traced runs alternate rounds of the 24 queries between an untraced side
/// (0) and a traced side (1).  Both call EvaluateLayered — the untraced side
/// with no span log — so the sides run the same code, only the spans
/// differ, and a change of machine speed hits both alike.  Rounds go in
/// pairs, 0 1 | 1 0 | 0 1 | ..., so each side opens a pair as often as the
/// other: a client that changes CPU between pairs (table2_*) pays the cold
/// caches of the move on both sides alike.
inline int TraceSide(uint64_t round) {
  return static_cast<int>((round + round / 2) % 2);
}

/// Operator names the executor reports in ExecutionTrace rows.
inline constexpr std::array<const char*, 8> kOperators = {
    "AnchorScan",     "TagIndexProbe", "ValueIndexProbe",
    "PathIndexProbe", "SemiJoinFilter", "NokMatch",
    "StructuralSemiJoin", "Output"};

/// Per-operator sums over many ExecutionTrace rows.
struct OperatorTotals {
  std::array<double, kOperators.size()> seconds{};
  std::array<uint64_t, kOperators.size()> rows_in{};
  std::array<uint64_t, kOperators.size()> rows_out{};
  uint64_t results = 0;

  void Add(const nok::ExecutionTrace& trace);
  void Add(const OperatorTotals& other);
};

// ---------------------------------------------------------------------------
// Counters the library exposes.

/// BufferPool::Stats of the tree pool and the four index pools plus the
/// tree string's NavStats, read together.
struct StoreCounters {
  nok::BufferPool::Stats tree, tag, value, id, path;
  nok::StringStore::NavStats nav;
};
StoreCounters ReadCounters(nok::DocumentStore* store);
/// after - before, field by field.
StoreCounters Delta(const StoreCounters& after, const StoreCounters& before);
void Accumulate(StoreCounters* sum, const StoreCounters& delta);

// ---------------------------------------------------------------------------
// Inputs and small helpers.

struct RunResult;

/// Seed of the descendant-axis variant choice: the 24 queries `nokq gen`
/// writes for its default seed.  Pinned rather than taken from --seed: one
/// '//' placement can cost 50x another (Q5d), so a per-seed choice moved
/// query_qps by 2x between seeds while the document's seed moves it little.
inline constexpr uint64_t kVariantSeed = 42;

/// The generated document (catalog, from `seed`) and its Table-2
/// workload: the twelve category queries plus their descendant-axis
/// variants (24 queries).
struct Workload {
  nok::GeneratedDataset ds;
  std::vector<nok::CategoryQuery> queries;
};
Workload MakeWorkload(double scale, uint64_t seed);

/// The workload's 24 XPath strings, in query order.
std::vector<std::string> XPaths(const Workload& w);

/// One answer (Dewey IDs in document order) per query.
using Answers = std::vector<std::vector<nok::DeweyId>>;

/// Evaluates every xpath through QueryEngine::Evaluate; a failed query
/// counts in `result` under `where` and answers empty.
Answers EvaluateAll(nok::DocumentStore* store,
                    const std::vector<std::string>& xpaths, RunResult* result,
                    const std::string& where);

/// Wall times of the set-up rounds, in seconds.
struct SetupTimes {
  std::vector<double> total_s, build_s, flush_s, open_s;
};

/// Build + Flush + `open`, `rounds` times from an empty `options.dir`, each
/// round and step under a span.  `open` opens the flushed directory the way
/// the workload does and keeps the handle; `close` drops it before the next
/// round deletes the directory.  The last round's handle stays open.
nok::Status RunSetup(const std::string& xml,
                     const nok::DocumentStore::Options& options, int rounds,
                     const std::function<void()>& close,
                     const std::function<nok::Status()>& open, SpanLog* log,
                     SetupTimes* out);

/// The planted result count of a value-needle category query ("hpy",
/// "mby", ...): the number of entries holding that class's needle.  -1 for
/// the structural categories.
int64_t PlantedCount(const nok::GeneratedDataset& ds,
                     const std::string& category);

/// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Moves the calling thread to the next CPU of its affinity mask on every
/// Next(), and restores the mask on destruction.  On a shared virtual
/// machine one vCPU can run at half speed for tens of seconds while its
/// host core is contended; a single client pinned there by the scheduler
/// makes a whole run slow.  Rotating spreads the client's time over every
/// vCPU, so a run samples each one's state instead of one's.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool restore_ = false;
  cpu_set_t saved_{};
};

/// Returns freed heap to the system and restarts the process's resident
/// memory high-water mark (Linux /proc/self/clear_refs), so that PeakRssMb
/// covers what runs after the call rather than set-up's peak.  False when
/// the kernel refuses the reset.
bool ResetPeakRss();

/// Process high-water resident memory since the last ResetPeakRss (or the
/// process start), in MB.
double PeakRssMb();

/// Total bytes of the regular files directly inside dir.
uint64_t DirBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// The run's outcome.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failure messages (all failures are counted).
  std::vector<std::string> errors;
  /// What the result line reports: the end-to-end metrics of an untraced
  /// run, or the per-layer metrics of a traced one.
  std::vector<Metric> metrics;
  /// End-to-end metrics of a workload that BENCHMARK.json cannot gate
  /// because other workloads have no value for them (the update batch
  /// metrics); printed in the summary line only.
  std::vector<Metric> extra;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  /// Counts one checked operation; records `what` when it failed.
  void Check(bool ok, const std::string& what);
  /// Adds another result's checks (its metrics are not taken).
  void Merge(const RunResult& other);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Per-query detail as a JSON array: each Table-2 query's id, category,
/// untraced sample count and p50 latency, then `fields(q)`, a list of
/// `, "key": value` pairs the workload adds.
std::string PerQueryJson(const Workload& w,
                         const std::vector<std::vector<double>>& per_query_ms,
                         const std::function<std::string(size_t)>& fields);

/// Everything a traced run measured, turned into the per-layer metrics by
/// AddLayerMetrics.  Fields a workload does not exercise stay zero.
struct LayerReport {
  /// Spans of the measured phase (setup spans excluded).
  SpanTotals spans;
  /// Operator times summed over the traced side's queries.
  uint64_t traced_queries = 0;
  OperatorTotals traced_ops;
  /// Counter pass: pool/nav deltas and operator rows over
  /// `counted_queries` queries.
  uint64_t counted_queries = 0;
  OperatorTotals counted_ops;
  StoreCounters counters{};
  SetupTimes setup;
  /// Share of the set-up's store opens that loaded each sidecar rather
  /// than rebuilding it (one open on table2_*, writer plus first snapshot
  /// on update_wal).
  double bp_from_sidecar = 0;
  double synopsis_from_sidecar = 0;
  nok::DocumentStoreStats store_stats;
  /// Write path (update_wal only).
  uint64_t commits = 0;
  nok::WalWriter::Stats wal;
  uint64_t user_bytes = 0;  ///< Fragment bytes handed to InsertSubtree.
  uint64_t retained_bytes_peak = 0;
  std::vector<double> batch_ms;
  uint64_t update_ops = 0;
  double phase_seconds = 0;
  /// Queries per second of the untraced and the traced side of the same
  /// phase (all clients).
  double untraced_qps = 0;
  double traced_qps = 0;
};
void AddLayerMetrics(const LayerReport& report, RunResult* result);

/// Shortest round-trip decimal form of v (JSON-safe; NaN/inf become 0).
std::string FormatNumber(double v);

/// Arguments shared by every workload.
struct RunArgs {
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;  ///< Scratch directory for this run's stores.
  std::string out_dir;  ///< Where traced runs write spans and detail.
  std::string workload;
};

/// Traced runs' output: every span as CSV and the per-query detail, under
/// args.out_dir, named after the workload and seed.
void WriteTraceOutput(const RunArgs& args,
                      const std::vector<const SpanLog*>& logs,
                      const std::string& detail_json, RunResult* result);

/// The measured client loops and their correctness gates.
RunResult RunTable2(const RunArgs& args, nok::NavMode mode);
RunResult RunUpdateWal(const RunArgs& args);

}  // namespace perfbench

#endif  // NOK_PERFBENCH_HARNESS_H_
