// table2_paged / table2_bp: the paper's Table-2 experiment on the
// Table 1-sized catalog document (scale 1.0), one closed-loop client over
// the 24 queries, with the store opened read-only on one navigation tier.

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/navigational_engine.h"
#include "harness.h"
#include "nok/query_engine.h"
#include "nok/xpath_parser.h"
#include "xml/dom.h"

namespace perfbench {
namespace {

using nok::DeweyId;
using nok::DocumentStore;
using nok::NavMode;

constexpr double kScale = 1.0;
constexpr int kSetupRounds = 3;

/// One closed-loop client: the 24 queries in order, repeated until the
/// deadline, every answer compared with the reference.  Untraced (no log)
/// it calls QueryEngine::Evaluate; traced, its rounds alternate between the
/// two TraceSide()s.  Latencies are kept for the untraced side only.
struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> per_query_ms;
  uint64_t queries = 0;
  double seconds = 0;
  /// Per side: queries and their summed latency.
  std::array<uint64_t, 2> side_queries{};
  std::array<double, 2> side_seconds{};
  /// Operator rows and times of the traced side.
  OperatorTotals ops;

  double Qps() const { return static_cast<double>(queries) / seconds; }
  double SideQps(int side) const {
    const auto k = static_cast<size_t>(side);
    return side_seconds[k] == 0
               ? 0
               : static_cast<double>(side_queries[k]) / side_seconds[k];
  }
};

LoopStats RunLoop(DocumentStore* store, const Workload& w,
                  const Answers& reference, double seconds, SpanLog* log,
                  RunResult* result) {
  const size_t n = w.queries.size();
  LoopStats loop;
  loop.per_query_ms.resize(n);
  loop.latency_ms.reserve(1 << 14);
  nok::QueryEngine engine(store);
  nok::ExecutionTrace trace;
  CpuRotation rotation;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    const size_t q = i % n;
    const uint64_t round = i / n;
    const int side = log == nullptr ? 0 : TraceSide(round);
    // Traced, the client moves between pairs of rounds, so that each CPU
    // runs both sides.
    if (q == 0 && (log == nullptr || round % 2 == 0)) rotation.Next();
    const std::string& xpath = w.queries[q].xpath;
    SpanLog* side_log = side == 1 ? log : nullptr;
    const int64_t t0 = NowNs();
    auto r = log == nullptr ? engine.Evaluate(xpath) : [&] {
      ScopedSpan span(side_log, SpanName::kQuery, i);
      return EvaluateLayered(store, xpath, side_log, i, &trace);
    }();
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    const bool ok = r.ok() && *r == reference[q];
    result->Check(ok, ok ? std::string()
                         : w.queries[q].id + " differs from its first run" +
                               (r.ok() ? "" : ": " + r.status().ToString()));
    ++loop.side_queries[static_cast<size_t>(side)];
    loop.side_seconds[static_cast<size_t>(side)] += ms / 1e3;
    if (side == 1) {
      if (r.ok()) loop.ops.Add(trace);
    } else {
      loop.latency_ms.push_back(ms);
      loop.per_query_ms[q].push_back(ms);
    }
    ++loop.queries;
  }
  loop.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return loop;
}

DeweyId DomDewey(const nok::DomNode* node) {
  std::vector<uint32_t> components;
  for (const nok::DomNode* n = node; n != nullptr; n = n->parent) {
    components.push_back(n->parent == nullptr ? 0 : n->child_index);
  }
  std::reverse(components.begin(), components.end());
  return DeweyId(std::move(components));
}

std::vector<std::string> Canon(const std::vector<DeweyId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const DeweyId& id : ids) out.push_back(id.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

/// The correctness gate: planted needle counts, the other navigation tier
/// on the same directory, and the navigational baseline on the same XML.
void Gate(const Workload& w, const std::string& dir, NavMode mode,
          const Answers& reference, RunResult* result) {
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const int64_t planted = PlantedCount(w.ds, w.queries[q].category);
    if (planted < 0) continue;
    result->Check(static_cast<int64_t>(reference[q].size()) == planted,
                  w.queries[q].id + " returned " +
                      std::to_string(reference[q].size()) +
                      " results, planted " + std::to_string(planted));
  }

  DocumentStore::Options options;
  options.dir = dir;
  options.read_only = true;
  options.nav_mode = mode == NavMode::kBp ? NavMode::kPaged : NavMode::kBp;
  auto other = DocumentStore::OpenDir(options);
  result->Check(other.ok(), "open on the other tier: " +
                                other.status().ToString());
  if (other.ok()) {
    const Answers answers =
        EvaluateAll(other->get(), XPaths(w), result, "other tier");
    for (size_t q = 0; q < w.queries.size(); ++q) {
      result->Check(answers[q] == reference[q],
                    w.queries[q].id + " differs between the paged and BP "
                                      "tiers");
    }
  }

  auto dom = nok::DomTree::Parse(w.ds.xml);
  result->Check(dom.ok(), "baseline parse: " + dom.status().ToString());
  if (!dom.ok()) return;
  nok::NavigationalEngine baseline(&*dom);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto pattern = nok::ParseXPath(w.queries[q].xpath);
    bool ok = pattern.ok();
    if (ok) {
      auto nodes = baseline.Evaluate(*pattern);
      ok = nodes.ok();
      if (ok) {
        std::vector<DeweyId> ids;
        for (const nok::DomNode* n : *nodes) ids.push_back(DomDewey(n));
        ok = Canon(ids) == Canon(reference[q]);
      }
    }
    result->Check(ok, w.queries[q].id +
                          " differs from the navigational baseline");
  }
}

}  // namespace

RunResult RunTable2(const RunArgs& args, NavMode mode) {
  RunResult result;
  const Workload w = MakeWorkload(kScale, args.seed);
  const std::string dir = args.run_dir + "/store";

  SpanLog setup_log(0);
  std::unique_ptr<DocumentStore> owned;
  DocumentStore::Options options;
  options.dir = dir;
  options.nav_mode = mode;
  SetupTimes setup;
  const nok::Status s = RunSetup(
      w.ds.xml, options, kSetupRounds, [&] { owned.reset(); },
      [&]() -> nok::Status {
        DocumentStore::Options read = options;
        read.read_only = true;
        NOK_ASSIGN_OR_RETURN(owned, DocumentStore::OpenDir(read));
        return nok::Status::OK();
      },
      &setup_log, &setup);
  result.Check(s.ok(), "setup: " + s.ToString());
  if (!s.ok()) return result;
  DocumentStore* store = owned.get();
  const double store_ratio = static_cast<double>(DirBytes(dir)) /
                             static_cast<double>(w.ds.xml.size());

  // Reference answers: each query's first run, checked by the gate below
  // and compared with every later run.
  const Answers reference = EvaluateAll(store, XPaths(w), &result, "first run");
  if (result.failed > 0) return result;

  if (!args.trace) {
    if (!ResetPeakRss()) {
      result.notes.push_back("peak RSS reset refused: peak_rss_mb includes "
                             "set-up");
    }
    LoopStats loop =
        RunLoop(store, w, reference, args.seconds, nullptr, &result);
    result.Add("setup_s", Median(setup.total_s), "s");
    result.Add("query_p50_ms", Percentile(loop.latency_ms, 0.5), "ms");
    result.Add("query_p99_ms", Percentile(loop.latency_ms, 0.99), "ms");
    result.Add("query_qps", loop.Qps(), "1/s");
    result.Add("store_bytes_per_xml_byte", store_ratio, "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.notes.push_back("queries: " + std::to_string(loop.queries) +
                           " in " + FormatNumber(loop.seconds) + " s");
  } else {
    // Counter pass: cold pools, one warm-up round, then one counted round
    // of the 24 queries.  Single client, fixed order: the counts repeat
    // exactly for a given seed.
    LayerReport report;
    std::vector<StoreCounters> per_query(w.queries.size());
    std::vector<OperatorTotals> per_query_ops(w.queries.size());
    const nok::Status dropped = store->DropCaches();
    result.Check(dropped.ok(), "drop caches: " + dropped.ToString());
    nok::ExecutionTrace trace;
    for (int round = 0; round < 2; ++round) {
      for (size_t q = 0; q < w.queries.size(); ++q) {
        const StoreCounters before = ReadCounters(store);
        auto r = EvaluateLayered(store, w.queries[q].xpath, nullptr, 0, &trace);
        const StoreCounters delta = Delta(ReadCounters(store), before);
        result.Check(r.ok() && *r == reference[q],
                     w.queries[q].id + " differs in the counter pass");
        if (round == 1) {
          per_query[q] = delta;
          per_query_ops[q].Add(trace);
          Accumulate(&report.counters, delta);
          report.counted_ops.Add(trace);
          ++report.counted_queries;
        }
      }
    }

    // The timed phase, its rounds alternating untraced and traced.
    SpanLog log(1);
    const LoopStats loop =
        RunLoop(store, w, reference, args.seconds, &log, &result);
    report.spans = SumSpans({&log});
    report.traced_queries = loop.side_queries[1];
    report.traced_ops = loop.ops;
    report.setup = setup;
    report.bp_from_sidecar = store->bp_loaded_from_sidecar() ? 1 : 0;
    report.synopsis_from_sidecar =
        store->synopsis_loaded_from_sidecar() ? 1 : 0;
    report.store_stats = store->stats();
    report.untraced_qps = loop.SideQps(0);
    report.traced_qps = loop.SideQps(1);
    AddLayerMetrics(report, &result);

    auto fields = [&](size_t q) {
      const StoreCounters& c = per_query[q];
      std::string json =
          ", \"results\": " + std::to_string(per_query_ops[q].results) +
          ", \"btree.tag.fetches\": " + std::to_string(c.tag.fetches) +
          ", \"btree.value.fetches\": " + std::to_string(c.value.fetches) +
          ", \"btree.id.fetches\": " + std::to_string(c.id.fetches) +
          ", \"btree.path.fetches\": " + std::to_string(c.path.fetches) +
          ", \"buffer_pool.tree.fetches\": " + std::to_string(c.tree.fetches) +
          ", \"string_store.pages_scanned\": " +
          std::to_string(c.nav.pages_scanned) +
          ", \"bp_index.steps\": " + std::to_string(c.nav.bp_steps);
      for (size_t k = 0; k < kOperators.size(); ++k) {
        json += std::string(", \"") + kOperators[k] +
                "_rows_out\": " + std::to_string(per_query_ops[q].rows_out[k]);
      }
      return json;
    };
    WriteTraceOutput(args, {&setup_log, &log},
                     PerQueryJson(w, loop.per_query_ms, fields), &result);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const StoreCounters& c = per_query[q];
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "%-4s %s p50=%.3fms results=%llu btree(t/v/i/p)=%llu/%llu/%llu/%llu "
          "tree_fetches=%llu pages_scanned=%llu bp_steps=%llu",
          w.queries[q].id.c_str(), w.queries[q].category.c_str(),
          Median(loop.per_query_ms[q]),
          static_cast<unsigned long long>(per_query_ops[q].results),
          static_cast<unsigned long long>(c.tag.fetches),
          static_cast<unsigned long long>(c.value.fetches),
          static_cast<unsigned long long>(c.id.fetches),
          static_cast<unsigned long long>(c.path.fetches),
          static_cast<unsigned long long>(c.tree.fetches),
          static_cast<unsigned long long>(c.nav.pages_scanned),
          static_cast<unsigned long long>(c.nav.bp_steps));
      result.notes.push_back(line);
    }
  }

  Gate(w, dir, mode, reference, &result);
  owned.reset();
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
