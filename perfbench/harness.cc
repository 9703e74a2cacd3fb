#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "nok/nok_partition.h"
#include "nok/physical_matcher.h"
#include "nok/planner.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"

namespace perfbench {

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kSetup: return "setup";
    case SpanName::kBuild: return "document_store.build";
    case SpanName::kFlush: return "document_store.flush";
    case SpanName::kOpen: return "document_store.open";
    case SpanName::kQuery: return "query";
    case SpanName::kSnapshot: return "swmr_store.snapshot";
    case SpanName::kParse: return "xpath_parser";
    case SpanName::kPartition: return "nok_partition";
    case SpanName::kPlan: return "planner";
    case SpanName::kExecute: return "executor";
    case SpanName::kBatch: return "batch";
    case SpanName::kInsert: return "updater.insert";
    case SpanName::kDelete: return "updater.delete";
    case SpanName::kCommit: return "swmr_store.commit";
    case SpanName::kCount: break;
  }
  return "?";
}

size_t SpanLog::Begin(SpanName name, uint64_t op) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back({name, parent, op, NowNs(), 0});
  return spans_.size() - 1;
}

void SpanLog::End(size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

double SpanTotals::MeanSelfUs(SpanName name) const {
  const size_t i = static_cast<size_t>(name);
  return count[i] == 0 ? 0 : self_ns[i] / 1e3 / static_cast<double>(count[i]);
}

SpanTotals SumSpans(const std::vector<const SpanLog*>& logs) {
  SpanTotals totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    // Children of one span run one after another on the log's thread, so
    // self time is the duration minus the children's summed durations.
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const size_t k = static_cast<size_t>(spans[i].name);
      const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      totals.self_ns[k] += d - child_ns[i];
      ++totals.count[k];
    }
  }
  return totals;
}

nok::Status WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  out << "thread,op,name,parent,start_ns,end_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << log->thread() << ',' << s.op << ',' << SpanLabel(s.name) << ','
          << s.parent << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  out.close();
  if (!out) return nok::Status::IOError("cannot write " + path);
  return nok::Status::OK();
}

nok::Result<std::vector<nok::DeweyId>> EvaluateLayered(
    nok::DocumentStore* store, const std::string& xpath, SpanLog* log,
    uint64_t op, nok::ExecutionTrace* trace) {
  nok::PatternTree pattern;
  {
    ScopedSpan span(log, SpanName::kParse, op);
    NOK_ASSIGN_OR_RETURN(pattern, nok::ParseXPath(xpath));
  }
  nok::NokPartition partition;
  std::vector<nok::TagId> tag_table;
  {
    ScopedSpan span(log, SpanName::kPartition, op);
    if (nok::HasPositionalPredicate(pattern)) {
      return nok::Status::NotSupported("positional predicate");
    }
    partition = nok::PartitionPattern(pattern);
    tag_table = nok::ResolvePatternTags(pattern, *store->tags());
  }
  const nok::QueryOptions options;
  nok::QueryPlan plan;
  {
    ScopedSpan span(log, SpanName::kPlan, op);
    nok::Planner planner(store);
    NOK_ASSIGN_OR_RETURN(plan, planner.Plan(partition, tag_table, options));
  }
  ScopedSpan span(log, SpanName::kExecute, op);
  nok::Executor executor(store);
  nok::QueryStats stats;
  *trace = nok::ExecutionTrace{};
  return executor.Run(plan, partition, tag_table, options, &stats, trace);
}

void OperatorTotals::Add(const nok::ExecutionTrace& trace) {
  for (const nok::OperatorStats& row : trace.operators) {
    for (size_t i = 0; i < kOperators.size(); ++i) {
      if (row.op == kOperators[i]) {
        seconds[i] += row.seconds;
        rows_in[i] += row.rows_in;
        rows_out[i] += row.rows_out;
      }
    }
    if (row.op == "Output") results += row.rows_out;
  }
}

void OperatorTotals::Add(const OperatorTotals& other) {
  for (size_t i = 0; i < kOperators.size(); ++i) {
    seconds[i] += other.seconds[i];
    rows_in[i] += other.rows_in[i];
    rows_out[i] += other.rows_out[i];
  }
  results += other.results;
}

StoreCounters ReadCounters(nok::DocumentStore* store) {
  StoreCounters c;
  c.tree = store->tree()->buffer_pool()->stats();
  c.tag = store->tag_index()->buffer_pool()->stats();
  c.value = store->value_index()->buffer_pool()->stats();
  c.id = store->id_index()->buffer_pool()->stats();
  c.path = store->path_index()->buffer_pool()->stats();
  c.nav = store->tree()->nav_stats();
  return c;
}

namespace {

nok::BufferPool::Stats PoolDelta(const nok::BufferPool::Stats& a,
                                 const nok::BufferPool::Stats& b) {
  nok::BufferPool::Stats d;
  d.fetches = a.fetches - b.fetches;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.disk_reads = a.disk_reads - b.disk_reads;
  d.disk_writes = a.disk_writes - b.disk_writes;
  d.evictions = a.evictions - b.evictions;
  return d;
}

void PoolAdd(nok::BufferPool::Stats* sum, const nok::BufferPool::Stats& d) {
  sum->fetches += d.fetches;
  sum->hits += d.hits;
  sum->misses += d.misses;
  sum->disk_reads += d.disk_reads;
  sum->disk_writes += d.disk_writes;
  sum->evictions += d.evictions;
}

}  // namespace

StoreCounters Delta(const StoreCounters& after, const StoreCounters& before) {
  StoreCounters d;
  d.tree = PoolDelta(after.tree, before.tree);
  d.tag = PoolDelta(after.tag, before.tag);
  d.value = PoolDelta(after.value, before.value);
  d.id = PoolDelta(after.id, before.id);
  d.path = PoolDelta(after.path, before.path);
  const nok::StringStore::NavStats& a = after.nav;
  const nok::StringStore::NavStats& b = before.nav;
  d.nav.pages_scanned = a.pages_scanned - b.pages_scanned;
  d.nav.pages_skipped = a.pages_skipped - b.pages_skipped;
  d.nav.pages_skipped_by_tag = a.pages_skipped_by_tag - b.pages_skipped_by_tag;
  d.nav.decode_cache_hits = a.decode_cache_hits - b.decode_cache_hits;
  d.nav.bp_steps = a.bp_steps - b.bp_steps;
  d.nav.bp_tag_blocks_skipped =
      a.bp_tag_blocks_skipped - b.bp_tag_blocks_skipped;
  return d;
}

void Accumulate(StoreCounters* sum, const StoreCounters& d) {
  PoolAdd(&sum->tree, d.tree);
  PoolAdd(&sum->tag, d.tag);
  PoolAdd(&sum->value, d.value);
  PoolAdd(&sum->id, d.id);
  PoolAdd(&sum->path, d.path);
  sum->nav.pages_scanned += d.nav.pages_scanned;
  sum->nav.pages_skipped += d.nav.pages_skipped;
  sum->nav.pages_skipped_by_tag += d.nav.pages_skipped_by_tag;
  sum->nav.decode_cache_hits += d.nav.decode_cache_hits;
  sum->nav.bp_steps += d.nav.bp_steps;
  sum->nav.bp_tag_blocks_skipped += d.nav.bp_tag_blocks_skipped;
}

Workload MakeWorkload(double scale, uint64_t seed) {
  nok::GenOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  Workload w{nok::GenerateDataset(nok::Dataset::kCatalog, gen), {}};
  w.queries = nok::QueriesForDataset(w.ds);
  const std::vector<nok::CategoryQuery> variants =
      nok::DescendantVariants(w.queries, kVariantSeed);
  w.queries.insert(w.queries.end(), variants.begin(), variants.end());
  return w;
}

std::vector<std::string> XPaths(const Workload& w) {
  std::vector<std::string> xpaths;
  for (const nok::CategoryQuery& q : w.queries) xpaths.push_back(q.xpath);
  return xpaths;
}

Answers EvaluateAll(nok::DocumentStore* store,
                    const std::vector<std::string>& xpaths, RunResult* result,
                    const std::string& where) {
  nok::QueryEngine engine(store);
  Answers answers;
  for (const std::string& xpath : xpaths) {
    auto r = engine.Evaluate(xpath);
    result->Check(r.ok(), where + " " + xpath + ": " + r.status().ToString());
    answers.push_back(r.ok() ? std::move(r).ValueOrDie()
                             : std::vector<nok::DeweyId>());
  }
  return answers;
}

nok::Status RunSetup(const std::string& xml,
                     const nok::DocumentStore::Options& options, int rounds,
                     const std::function<void()>& close,
                     const std::function<nok::Status()>& open, SpanLog* log,
                     SetupTimes* out) {
  for (int round = 0; round < rounds; ++round) {
    close();
    std::filesystem::remove_all(options.dir);
    const auto id = static_cast<uint64_t>(round);
    ScopedSpan span(log, SpanName::kSetup, id);
    const int64_t t0 = NowNs();
    std::unique_ptr<nok::DocumentStore> built;
    {
      ScopedSpan s(log, SpanName::kBuild, id);
      NOK_ASSIGN_OR_RETURN(built, nok::DocumentStore::Build(xml, options));
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan s(log, SpanName::kFlush, id);
      NOK_RETURN_IF_ERROR(built->Flush());
    }
    built.reset();
    const int64_t t2 = NowNs();
    {
      ScopedSpan s(log, SpanName::kOpen, id);
      NOK_RETURN_IF_ERROR(open());
    }
    const int64_t t3 = NowNs();
    out->build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    out->flush_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    out->open_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    out->total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
  return nok::Status::OK();
}

int64_t PlantedCount(const nok::GeneratedDataset& ds,
                     const std::string& category) {
  if (category.size() != 3 || category[2] != 'y') return -1;
  // count_hi/mod/low are cumulative: the moderate needle sits in the
  // count_mod - count_hi entries beyond the high ones, and so on.
  const auto hi = static_cast<int64_t>(ds.count_hi);
  const auto mod = static_cast<int64_t>(ds.count_mod);
  const auto low = static_cast<int64_t>(ds.count_low);
  switch (category[0]) {
    case 'h': return hi;
    case 'm': return mod - hi;
    case 'l': return low - mod;
    default: return -1;
  }
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size());
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  restore_ = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size.
  clear.close();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void AddLayerMetrics(const LayerReport& r, RunResult* out) {
  const SpanTotals& s = r.spans;
  out->Add("xpath_parser.parse_us", s.MeanSelfUs(SpanName::kParse), "us");
  out->Add("nok_partition.partition_us", s.MeanSelfUs(SpanName::kPartition),
           "us");
  out->Add("planner.plan_us", s.MeanSelfUs(SpanName::kPlan), "us");
  out->Add("executor.run_us", s.MeanSelfUs(SpanName::kExecute), "us");

  const double traced = static_cast<double>(r.traced_queries);
  const double counted = static_cast<double>(r.counted_queries);
  uint64_t semi_in = 0, semi_out = 0;
  for (size_t i = 0; i < kOperators.size(); ++i) {
    const std::string op = kOperators[i];
    out->Add("executor." + op + "_us",
             Ratio(r.traced_ops.seconds[i] * 1e6, traced), "us");
    out->Add("executor." + op + "_rows_out",
             Ratio(static_cast<double>(r.counted_ops.rows_out[i]), counted),
             "rows");
    if (op == "SemiJoinFilter" || op == "StructuralSemiJoin") {
      semi_in += r.counted_ops.rows_in[i];
      semi_out += r.counted_ops.rows_out[i];
    }
  }
  const size_t match = 5;  // kOperators index of NokMatch.
  out->Add("executor.nokmatch_yield",
           Ratio(static_cast<double>(r.counted_ops.rows_out[match]),
                 static_cast<double>(r.counted_ops.rows_in[match])),
           "ratio");
  out->Add("executor.semijoin_yield",
           Ratio(static_cast<double>(semi_out), static_cast<double>(semi_in)),
           "ratio");
  out->Add("executor.results",
           Ratio(static_cast<double>(r.counted_ops.results), counted), "rows");

  auto pool = [&](const std::string& prefix, const nok::BufferPool::Stats& p,
                  bool disk_reads) {
    out->Add(prefix + ".fetches",
             Ratio(static_cast<double>(p.fetches), counted), "count");
    out->Add(prefix + ".hit_rate",
             Ratio(static_cast<double>(p.hits), static_cast<double>(p.fetches)),
             "ratio");
    out->Add(prefix + ".evictions",
             Ratio(static_cast<double>(p.evictions), counted), "count");
    if (disk_reads) {
      out->Add(prefix + ".disk_reads",
               Ratio(static_cast<double>(p.disk_reads), counted), "count");
    }
  };
  pool("btree.tag", r.counters.tag, false);
  pool("btree.value", r.counters.value, false);
  pool("btree.id", r.counters.id, false);
  pool("btree.path", r.counters.path, false);
  pool("buffer_pool.tree", r.counters.tree, true);

  const nok::StringStore::NavStats& nav = r.counters.nav;
  auto per_query = [&](uint64_t v) {
    return Ratio(static_cast<double>(v), counted);
  };
  out->Add("string_store.pages_scanned", per_query(nav.pages_scanned),
           "count");
  out->Add("string_store.pages_skipped", per_query(nav.pages_skipped),
           "count");
  out->Add("string_store.pages_skipped_by_tag",
           per_query(nav.pages_skipped_by_tag), "count");
  out->Add("string_store.decode_cache_hits", per_query(nav.decode_cache_hits),
           "count");
  out->Add("bp_index.steps", per_query(nav.bp_steps), "count");
  out->Add("bp_index.tag_blocks_skipped", per_query(nav.bp_tag_blocks_skipped),
           "count");

  out->Add("updater.insert_us", s.MeanSelfUs(SpanName::kInsert), "us");
  out->Add("updater.delete_us", s.MeanSelfUs(SpanName::kDelete), "us");
  out->Add("swmr_store.commit_us", s.MeanSelfUs(SpanName::kCommit), "us");
  const double commits = static_cast<double>(r.commits);
  out->Add("wal.records_per_commit",
           Ratio(static_cast<double>(r.wal.records_logged), commits), "count");
  out->Add("wal.bytes_per_commit",
           Ratio(static_cast<double>(r.wal.bytes_logged), commits), "B");
  out->Add("wal.syncs_per_commit",
           Ratio(static_cast<double>(r.wal.wal_syncs), commits), "count");
  out->Add("wal.bytes_per_user_byte",
           Ratio(static_cast<double>(r.wal.bytes_logged),
                 static_cast<double>(r.user_bytes)),
           "ratio");
  out->Add("swmr_store.snapshot_wait_us", s.MeanSelfUs(SpanName::kSnapshot),
           "us");
  out->Add("swmr_store.retained_bytes",
           static_cast<double>(r.retained_bytes_peak), "B");

  out->Add("document_store.build_s", Median(r.setup.build_s), "s");
  out->Add("document_store.flush_s", Median(r.setup.flush_s), "s");
  out->Add("document_store.open_s", Median(r.setup.open_s), "s");
  out->Add("bp_index.from_sidecar", r.bp_from_sidecar, "ratio");
  out->Add("path_synopsis.from_sidecar", r.synopsis_from_sidecar, "ratio");
  const nok::DocumentStoreStats& st = r.store_stats;
  out->Add("store.tree_bytes", static_cast<double>(st.tree_bytes), "B");
  out->Add("store.tag_index_bytes", static_cast<double>(st.tag_index_bytes),
           "B");
  out->Add("store.value_index_bytes",
           static_cast<double>(st.value_index_bytes), "B");
  out->Add("store.id_index_bytes", static_cast<double>(st.id_index_bytes), "B");
  out->Add("store.path_index_bytes", static_cast<double>(st.path_index_bytes),
           "B");
  out->Add("store.data_bytes", static_cast<double>(st.data_bytes), "B");

  out->Add("batch_p50_ms", Percentile(r.batch_ms, 0.5), "ms");
  out->Add("batch_p99_ms", Percentile(r.batch_ms, 0.99), "ms");
  out->Add("updates_per_s",
           Ratio(static_cast<double>(r.update_ops), r.phase_seconds), "1/s");

  out->Add("trace.untraced_qps", r.untraced_qps, "1/s");
  out->Add("trace.traced_qps", r.traced_qps, "1/s");
  out->Add("trace.overhead_pct",
           Ratio(100.0 * (r.untraced_qps - r.traced_qps), r.untraced_qps),
           "%");
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string PerQueryJson(const Workload& w,
                         const std::vector<std::vector<double>>& per_query_ms,
                         const std::function<std::string(size_t)>& fields) {
  std::string json = "[";
  for (size_t q = 0; q < w.queries.size(); ++q) {
    if (q > 0) json += ",";
    json += "\n  {\"id\": \"" + w.queries[q].id + "\", \"category\": \"" +
            w.queries[q].category + "\", \"samples\": " +
            std::to_string(per_query_ms[q].size()) +
            ", \"p50_ms\": " + FormatNumber(Median(per_query_ms[q])) +
            fields(q) + "}";
  }
  return json + "\n]";
}

void WriteTraceOutput(const RunArgs& args,
                      const std::vector<const SpanLog*>& logs,
                      const std::string& detail_json, RunResult* result) {
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const nok::Status written = WriteSpans(stem + "-spans.csv", logs);
  result->Check(written.ok(), written.ToString());
  std::ofstream detail(stem + "-queries.json", std::ios::trunc);
  detail << detail_json << "\n";
  detail.close();
  result->Check(static_cast<bool>(detail), "cannot write " + stem +
                                               "-queries.json");
  result->notes.push_back("per-query detail: " + stem + "-queries.json");
}

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void RunResult::Merge(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 20) errors.push_back(e);
  }
}

}  // namespace perfbench
