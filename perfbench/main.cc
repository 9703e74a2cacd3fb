// nok_e2e: the NoK store's end-to-end benchmark.
//
//   nok_e2e --workload table2_paged|table2_bp|update_wal --seed N
//           --seconds S --trace 0|1 [--work-dir D] [--out-dir D]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// report the per-layer metrics and write spans and per-query detail to
// the out dir.  Either way every answer is checked, and the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: nok_e2e --workload table2_paged|table2_bp|update_wal "
               "--seed N --seconds S --trace 0|1 [--work-dir D] "
               "[--out-dir D]\n");
  return 2;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            perfbench::FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string work_dir = ".bench_build/work";
  args.out_dir = ".bench_build/out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  args.run_dir = work_dir + "/" + args.workload + "-" +
                 std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(args.run_dir);
  std::filesystem::create_directories(args.run_dir);
  std::filesystem::create_directories(args.out_dir);

  perfbench::RunResult result;
  if (args.workload == "table2_paged") {
    result = perfbench::RunTable2(args, nok::NavMode::kPaged);
  } else if (args.workload == "table2_bp") {
    result = perfbench::RunTable2(args, nok::NavMode::kBp);
  } else if (args.workload == "update_wal") {
    result = perfbench::RunUpdateWal(args);
  } else {
    std::filesystem::remove_all(args.run_dir);
    return Usage();
  }
  std::filesystem::remove_all(args.run_dir);

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  for (const std::string& error : result.errors) {
    std::printf("FAILED: %s\n", error.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  if (!args.trace) {
    // Every end-to-end metric of this workload, including the ones the
    // result line cannot carry (update batches; the error rate, which is
    // failed / attempted below).
    std::vector<perfbench::Metric> all = result.metrics;
    all.insert(all.end(), result.extra.begin(), result.extra.end());
    all.push_back({"error_rate",
                   result.attempted == 0
                       ? 1.0
                       : static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted),
                   "ratio"});
    std::printf("end_to_end %s: %s\n", args.workload.c_str(),
                MetricsJson(all).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result.metrics).c_str());
  return correct ? 0 : 1;
}
