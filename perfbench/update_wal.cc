// update_wal: one writer committing seeded update batches through the WAL
// (SwmrStore) while two readers run the Table-2 queries on the current
// snapshot, on the catalog document at scale 0.05.

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "encoding/store_verifier.h"
#include "encoding/swmr_store.h"
#include "harness.h"
#include "nok/query_engine.h"
#include "xml/dom.h"

namespace perfbench {
namespace {

using nok::DeweyId;
using nok::DocumentStore;
using nok::NavMode;
using nok::SwmrStore;

constexpr double kScale = 0.05;
/// A set-up round of this small store takes about 0.1 s, so many are
/// cheap, and their median steadies setup_s.
constexpr int kSetupRounds = 15;
constexpr int kReaders = 2;
/// Four updates per commit, as in bench_concurrency's mixed phase.  Each is
/// an insert or a delete with equal odds (an insert when nothing inserted
/// is live), so the document keeps its size in expectation.  With
/// bench_concurrency's three inserts and one delete the document would
/// grow by two subtrees a commit, so a faster writer would leave a larger
/// document behind it, and slower reads and commits.
constexpr int kOpsPerBatch = 4;
/// The inserted subtrees reuse the item's `attributes` element, which no
/// Table-2 query names: every query's result count stays fixed while the
/// writer runs, and this query counts the inserts.
constexpr const char* kCountQuery = "//attributes";

SwmrStore::Options StoreOptions() {
  SwmrStore::Options options;
  options.store.nav_mode = NavMode::kBp;
  return options;
}

/// An item element the writer inserts under: its Dewey ID (stable, since
/// updates only touch item children), current child count, and the child
/// positions of the subtrees it inserted and has not deleted yet.
struct Item {
  DeweyId id;
  uint32_t children;
  std::vector<uint32_t> inserted;
};

/// The writer's seeded batches.  Tracks every inserted subtree's position
/// as later inserts and deletes in the same item shift it.
class Updater {
 public:
  Updater(std::vector<Item> items, uint64_t seed)
      : items_(std::move(items)), rng_(seed ^ 0x5eedba7c4ULL) {}

  /// kOpsPerBatch inserts/deletes, then Commit.
  nok::Status RunBatch(SwmrStore* swmr, SpanLog* log, uint64_t* user_bytes) {
    const uint64_t batch = batches_++;
    ScopedSpan span(log, SpanName::kBatch, batch);
    for (int k = 0; k < kOpsPerBatch; ++k) {
      if (live_.empty() || rng_.Bernoulli(0.5)) {
        const size_t index = rng_.Uniform(items_.size());
        Item& item = items_[index];
        const auto pos =
            static_cast<uint32_t>(rng_.Uniform(uint64_t{item.children} + 1));
        const uint64_t v = values_++;
        const std::string fragment =
            "<attributes><weight>" + std::to_string(v % 900 + 1) +
            "</weight><size>" + std::to_string(v % 60 + 1) +
            "</size></attributes>";
        {
          ScopedSpan op(log, SpanName::kInsert, batch);
          NOK_RETURN_IF_ERROR(swmr->InsertSubtree(item.id, pos, fragment));
        }
        for (uint32_t& p : item.inserted) p += p >= pos ? 1 : 0;
        item.inserted.push_back(pos);
        ++item.children;
        live_.push_back(index);
        *user_bytes += fragment.size();
      } else {
        const size_t slot = rng_.Uniform(live_.size());
        Item& item = items_[live_[slot]];
        const size_t which = rng_.Uniform(item.inserted.size());
        const uint32_t pos = item.inserted[which];
        {
          ScopedSpan op(log, SpanName::kDelete, batch);
          NOK_RETURN_IF_ERROR(swmr->DeleteSubtree(item.id.Child(pos)));
        }
        item.inserted.erase(item.inserted.begin() +
                            static_cast<std::ptrdiff_t>(which));
        for (uint32_t& p : item.inserted) p -= p > pos ? 1 : 0;
        --item.children;
        live_[slot] = live_.back();
        live_.pop_back();
      }
    }
    ScopedSpan commit(log, SpanName::kCommit, batch);
    return swmr->Commit();
  }

  /// Inserted minus deleted subtrees.
  size_t live() const { return live_.size(); }

 private:
  std::vector<Item> items_;
  std::vector<size_t> live_;  ///< Item index of every live insert.
  nok::Random rng_;
  uint64_t batches_ = 0;
  uint64_t values_ = 0;
};

/// The catalog's items (/catalog/category/item) with their child counts.
std::vector<Item> CollectItems(const nok::DomTree& dom) {
  std::vector<Item> items;
  const nok::DomNode* root = dom.root();
  for (const auto& category : root->children) {
    for (const auto& child : category->children) {
      if (child->name != "item") continue;
      items.push_back({DeweyId({0, category->child_index, child->child_index}),
                       static_cast<uint32_t>(child->children.size()),
                       {}});
    }
  }
  return items;
}

/// What one phase (writer plus readers for a fixed time) measured.
/// Untraced, readers call QueryEngine::Evaluate; traced, the writer records
/// spans and each reader's rounds alternate between the two TraceSide()s.
/// Latencies are kept for the untraced side only.
struct Phase {
  std::vector<double> query_ms;
  std::vector<std::vector<double>> per_query_ms;
  uint64_t queries = 0;
  std::vector<double> batch_ms;
  uint64_t update_ops = 0;
  uint64_t commits = 0;
  uint64_t user_bytes = 0;
  uint64_t retained_peak = 0;
  double seconds = 0;
  /// Traced phases only: per side, the readers' summed queries per second
  /// of query time; the traced side's operator totals and pool deltas; per
  /// query, the bp steps and B+tree fetches of each traced execution.
  std::array<double, 2> side_qps{};
  uint64_t traced_queries = 0;
  OperatorTotals ops;
  StoreCounters counters{};
  std::vector<std::vector<double>> per_query_bp_steps;
  std::vector<std::vector<double>> per_query_btree_fetches;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

struct ReaderOut {
  RunResult result;
  std::vector<double> query_ms;
  std::vector<std::vector<double>> per_query_ms, bp_steps, btree_fetches;
  std::array<uint64_t, 2> side_queries{};
  std::array<double, 2> side_seconds{};
  OperatorTotals ops;
  StoreCounters counters{};
};

void Reader(SwmrStore* swmr, const Workload* w,
            const std::vector<size_t>* counts, int64_t deadline, size_t first,
            SpanLog* log, ReaderOut* out) {
  const size_t n = w->queries.size();
  out->per_query_ms.resize(n);
  out->bp_steps.resize(n);
  out->btree_fetches.resize(n);
  nok::ExecutionTrace trace;
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    const size_t q = (first + i) % n;
    const int side = log == nullptr ? 0 : TraceSide(i / n);
    SpanLog* side_log = side == 1 ? log : nullptr;
    const std::string& xpath = w->queries[q].xpath;
    const int64_t t0 = NowNs();
    auto r = [&] {
      ScopedSpan span(side_log, SpanName::kQuery, i);
      std::shared_ptr<SwmrStore::Snapshot> snap;
      {
        ScopedSpan s(side_log, SpanName::kSnapshot, i);
        snap = swmr->snapshot();
      }
      if (log == nullptr) {
        nok::QueryEngine engine(snap->store());
        return engine.Evaluate(xpath);
      }
      if (side == 0) {
        return EvaluateLayered(snap->store(), xpath, nullptr, i, &trace);
      }
      const StoreCounters before = ReadCounters(snap->store());
      auto res = EvaluateLayered(snap->store(), xpath, side_log, i, &trace);
      const StoreCounters d = Delta(ReadCounters(snap->store()), before);
      Accumulate(&out->counters, d);
      out->bp_steps[q].push_back(static_cast<double>(d.nav.bp_steps));
      out->btree_fetches[q].push_back(static_cast<double>(
          d.tag.fetches + d.value.fetches + d.id.fetches + d.path.fetches));
      return res;
    }();
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    const bool ok = r.ok() && r->size() == (*counts)[q];
    out->result.Check(
        ok, ok ? std::string()
               : w->queries[q].id + " result count changed under updates" +
                     (r.ok() ? "" : ": " + r.status().ToString()));
    ++out->side_queries[static_cast<size_t>(side)];
    out->side_seconds[static_cast<size_t>(side)] += ms / 1e3;
    if (side == 1) {
      if (r.ok()) out->ops.Add(trace);
    } else {
      out->query_ms.push_back(ms);
      out->per_query_ms[q].push_back(ms);
    }
  }
}

struct WriterOut {
  RunResult result;
  std::vector<double> batch_ms;
  uint64_t user_bytes = 0;
  uint64_t retained_peak = 0;
};

void Writer(SwmrStore* swmr, Updater* updater, int64_t deadline, SpanLog* log,
            WriterOut* out) {
  while (NowNs() < deadline) {
    const int64_t t0 = NowNs();
    const nok::Status s = updater->RunBatch(swmr, log, &out->user_bytes);
    out->result.Check(s.ok(), "update batch: " + s.ToString());
    if (!s.ok()) return;  // The writer handle is poisoned after a failure.
    out->batch_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (log != nullptr) {
      out->retained_peak =
          std::max(out->retained_peak, swmr->stats().retained_bytes);
    }
  }
}

Phase RunPhase(SwmrStore* swmr, const Workload& w,
               const std::vector<size_t>& counts, Updater* updater,
               double seconds, bool traced, RunResult* result) {
  Phase phase;
  const size_t n = w.queries.size();
  if (traced) {
    for (int t = 0; t <= kReaders; ++t) {
      phase.logs.push_back(std::make_unique<SpanLog>(t + 1));
    }
  }
  auto log = [&](int t) {
    return traced ? phase.logs[static_cast<size_t>(t)].get() : nullptr;
  };
  std::vector<ReaderOut> readers(kReaders);
  WriterOut writer;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    threads.emplace_back(Writer, swmr, updater, deadline, log(0), &writer);
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back(Reader, swmr, &w, &counts, deadline,
                           static_cast<size_t>(t) * n / kReaders, log(t + 1),
                           &readers[static_cast<size_t>(t)]);
    }
    for (std::thread& t : threads) t.join();
  }
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;

  result->Merge(writer.result);
  phase.batch_ms = std::move(writer.batch_ms);
  phase.commits = phase.batch_ms.size();
  phase.update_ops = phase.commits * kOpsPerBatch;
  phase.user_bytes = writer.user_bytes;
  phase.retained_peak = writer.retained_peak;
  phase.per_query_ms.resize(n);
  phase.per_query_bp_steps.resize(n);
  phase.per_query_btree_fetches.resize(n);
  for (ReaderOut& r : readers) {
    result->Merge(r.result);
    phase.query_ms.insert(phase.query_ms.end(), r.query_ms.begin(),
                          r.query_ms.end());
    for (size_t q = 0; q < n; ++q) {
      auto append = [q](std::vector<std::vector<double>>* to,
                        const std::vector<std::vector<double>>& from) {
        (*to)[q].insert((*to)[q].end(), from[q].begin(), from[q].end());
      };
      append(&phase.per_query_ms, r.per_query_ms);
      append(&phase.per_query_bp_steps, r.bp_steps);
      append(&phase.per_query_btree_fetches, r.btree_fetches);
    }
    for (size_t side = 0; side < 2; ++side) {
      if (r.side_seconds[side] > 0) {
        phase.side_qps[side] +=
            static_cast<double>(r.side_queries[side]) / r.side_seconds[side];
      }
    }
    phase.queries += r.side_queries[0] + r.side_queries[1];
    phase.traced_queries += r.side_queries[1];
    Accumulate(&phase.counters, r.counters);
    phase.ops.Add(r.ops);
  }
  return phase;
}

std::string Spread(const std::vector<double>& v) {
  if (v.empty()) return "null";
  return "{\"min\": " + FormatNumber(Percentile(v, 0)) +
         ", \"p50\": " + FormatNumber(Percentile(v, 0.5)) +
         ", \"max\": " + FormatNumber(Percentile(v, 1)) + "}";
}

}  // namespace

RunResult RunUpdateWal(const RunArgs& args) {
  RunResult result;
  const Workload w = MakeWorkload(kScale, args.seed);
  const std::string dir = args.run_dir + "/store";
  std::vector<Item> items;
  {
    auto dom = nok::DomTree::Parse(w.ds.xml);
    result.Check(dom.ok(), "parse: " + dom.status().ToString());
    if (!dom.ok()) return result;
    items = CollectItems(*dom);
  }

  // Set-up: Build + Flush + SwmrStore::Open (WAL recovery, writer and
  // first snapshot, BP index and synopsis each), repeated from scratch.
  SpanLog setup_log(0);
  std::unique_ptr<SwmrStore> swmr;
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = NavMode::kBp;
  SetupTimes setup;
  const nok::Status s = RunSetup(
      w.ds.xml, options, kSetupRounds, [&] { swmr.reset(); },
      [&]() -> nok::Status {
        NOK_ASSIGN_OR_RETURN(swmr, SwmrStore::Open(dir, StoreOptions()));
        return nok::Status::OK();
      },
      &setup_log, &setup);
  result.Check(s.ok(), "setup: " + s.ToString());
  if (!s.ok()) return result;
  const double store_ratio = static_cast<double>(DirBytes(dir)) /
                             static_cast<double>(w.ds.xml.size());

  // Initial answers: the per-query result counts every reader must keep
  // seeing, the planted needle counts, and the insert count's base.
  const size_t n = w.queries.size();
  std::vector<std::string> xpaths = XPaths(w);
  xpaths.push_back(kCountQuery);
  std::vector<size_t> counts;
  size_t base_count = 0;
  double bp_sidecar = 0, synopsis_sidecar = 0;
  {
    std::shared_ptr<SwmrStore::Snapshot> snap = swmr->snapshot();
    const Answers initial =
        EvaluateAll(snap->store(), xpaths, &result, "initial");
    for (size_t q = 0; q < n; ++q) {
      counts.push_back(initial[q].size());
      const int64_t planted = PlantedCount(w.ds, w.queries[q].category);
      if (planted < 0) continue;
      result.Check(static_cast<int64_t>(initial[q].size()) == planted,
                   w.queries[q].id + " returned " +
                       std::to_string(initial[q].size()) +
                       " results, planted " + std::to_string(planted));
    }
    base_count = initial[n].size();
    for (DocumentStore* store : {swmr->writer(), snap->store()}) {
      bp_sidecar += store->bp_loaded_from_sidecar() ? 0.5 : 0;
      synopsis_sidecar += store->synopsis_loaded_from_sidecar() ? 0.5 : 0;
    }
  }
  if (result.failed > 0) return result;

  Updater updater(std::move(items), args.seed);
  if (!args.trace) {
    if (!ResetPeakRss()) {
      result.notes.push_back("peak RSS reset refused: peak_rss_mb includes "
                             "set-up");
    }
    const Phase p = RunPhase(swmr.get(), w, counts, &updater, args.seconds,
                             false, &result);
    result.Add("setup_s", Median(setup.total_s), "s");
    result.Add("query_p50_ms", Percentile(p.query_ms, 0.5), "ms");
    result.Add("query_p99_ms", Percentile(p.query_ms, 0.99), "ms");
    result.Add("query_qps", static_cast<double>(p.queries) / p.seconds,
               "1/s");
    result.Add("store_bytes_per_xml_byte", store_ratio, "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.extra.push_back(
        {"batch_p50_ms", Percentile(p.batch_ms, 0.5), "ms"});
    result.extra.push_back(
        {"batch_p99_ms", Percentile(p.batch_ms, 0.99), "ms"});
    result.extra.push_back(
        {"updates_per_s", static_cast<double>(p.update_ops) / p.seconds,
         "1/s"});
    result.notes.push_back(
        "queries: " + std::to_string(p.queries) + ", batches: " +
        std::to_string(p.commits) + " in " + FormatNumber(p.seconds) + " s");
  } else {
    const nok::WalWriter::Stats wal_before = swmr->writer()->wal_stats();
    const Phase phase = RunPhase(swmr.get(), w, counts, &updater,
                                 args.seconds, true, &result);
    const nok::WalWriter::Stats wal_after = swmr->writer()->wal_stats();

    LayerReport report;
    std::vector<const SpanLog*> logs;
    for (const auto& log : phase.logs) logs.push_back(log.get());
    report.spans = SumSpans(logs);
    report.traced_queries = phase.traced_queries;
    report.traced_ops = phase.ops;
    report.counted_queries = phase.traced_queries;
    report.counted_ops = phase.ops;
    report.counters = phase.counters;
    report.setup = setup;
    report.bp_from_sidecar = bp_sidecar;
    report.synopsis_from_sidecar = synopsis_sidecar;
    report.store_stats = swmr->writer()->stats();
    report.commits = phase.commits;
    report.wal.records_logged =
        wal_after.records_logged - wal_before.records_logged;
    report.wal.bytes_logged = wal_after.bytes_logged - wal_before.bytes_logged;
    report.wal.wal_syncs = wal_after.wal_syncs - wal_before.wal_syncs;
    report.user_bytes = phase.user_bytes;
    report.retained_bytes_peak = phase.retained_peak;
    report.batch_ms = phase.batch_ms;
    report.update_ops = phase.update_ops;
    report.phase_seconds = phase.seconds;
    report.untraced_qps = phase.side_qps[0];
    report.traced_qps = phase.side_qps[1];
    AddLayerMetrics(report, &result);

    logs.insert(logs.begin(), &setup_log);
    auto fields = [&](size_t q) {
      return ", \"bp_index.steps\": " + Spread(phase.per_query_bp_steps[q]) +
             ", \"btree.fetches\": " +
             Spread(phase.per_query_btree_fetches[q]);
    };
    WriteTraceOutput(args, logs, PerQueryJson(w, phase.per_query_ms, fields),
                     &result);
    for (size_t q = 0; q < n; ++q) {
      char line[256];
      const auto& steps = phase.per_query_bp_steps[q];
      std::snprintf(line, sizeof(line),
                    "%-4s %s p50=%.3fms bp_steps min/p50/max=%.0f/%.0f/%.0f",
                    w.queries[q].id.c_str(), w.queries[q].category.c_str(),
                    Median(phase.per_query_ms[q]), Percentile(steps, 0),
                    Percentile(steps, 0.5), Percentile(steps, 1));
      result.notes.push_back(line);
    }
  }

  // Gate: the last snapshot against a fresh open of the directory, the
  // insert count, and the offline verifier.
  Answers last;
  {
    std::shared_ptr<SwmrStore::Snapshot> snap = swmr->snapshot();
    last = EvaluateAll(snap->store(), xpaths, &result, "last snapshot");
  }
  for (size_t q = 0; q < n; ++q) {
    result.Check(last[q].size() == counts[q],
                 w.queries[q].id + " result count changed under updates");
  }
  result.Check(last[n].size() == base_count + updater.live(),
               std::string(kCountQuery) + " counts " +
                   std::to_string(last[n].size()) + ", expected " +
                   std::to_string(base_count) + " + " +
                   std::to_string(updater.live()) + " inserted-minus-deleted");
  swmr.reset();
  {
    DocumentStore::Options read = options;
    read.read_only = true;
    auto fresh = DocumentStore::OpenDir(read);
    result.Check(fresh.ok(), "fresh open: " + fresh.status().ToString());
    if (fresh.ok()) {
      const Answers reopened =
          EvaluateAll(fresh->get(), xpaths, &result, "reopened");
      for (size_t q = 0; q <= n; ++q) {
        result.Check(reopened[q] == last[q],
                     (q < n ? w.queries[q].id : std::string(kCountQuery)) +
                         " differs between the last snapshot and a fresh "
                         "open");
      }
    }
  }
  auto verified = nok::VerifyStoreDir(dir);
  std::string verdict = verified.status().ToString();
  if (verified.ok() && !verified->ok()) {
    verdict = std::to_string(verified->issues.size()) + " issue(s), first: " +
              verified->issues[0].component + ": " +
              verified->issues[0].detail;
  }
  result.Check(verified.ok() && verified->ok(), "verify: " + verdict);
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
