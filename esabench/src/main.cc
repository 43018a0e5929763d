// esabench: one workload per invocation.
//
//   esabench --workload <ingest_wal|epoch_drain|vocab_blinded|cluster_merge>
//            --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--threads <n>]
//   esabench --self-test
//
// Prints human-readable progress on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Untraced
// runs report the end-to-end metrics; traced runs report the per-layer
// metrics and write every span to <out>/trace-<workload>-seed<n>.jsonl.
// Exits 1 when a check fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "checks.h"

namespace esabench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: esabench --workload <ingest_wal|epoch_drain|vocab_blinded|cluster_merge>"
               " --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--threads <n>]\n"
               "       esabench --self-test\n");
}

void PrintMetric(bool& first, const std::string& name, double value, const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
              name.c_str(), std::isfinite(value) ? value : 0.0, unit.c_str());
  first = false;
}

int Main(int argc, char** argv) {
  MarkProcessStart();
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      return RunSelfTest() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--threads") {
      SetBenchThreads(std::strtoull(value.c_str(), nullptr, 10));
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !(args.seconds > 0)) {
    Usage();
    return 2;
  }

  Tracer tracer(args.trace);
  WorkloadResult result;
  std::filesystem::create_directories(args.out_dir);
  try {
    if (args.workload == "ingest_wal") {
      result = RunIngestWal(args, tracer);
    } else if (args.workload == "epoch_drain") {
      result = RunEpochDrain(args, tracer);
    } else if (args.workload == "vocab_blinded") {
      result = RunVocabBlinded(args, tracer);
    } else if (args.workload == "cluster_merge") {
      result = RunClusterMerge(args, tracer);
    } else {
      Usage();
      return 2;
    }
  } catch (const BenchError& error) {
    result.failures.push_back(error.what());
    result.attempted = std::max<uint64_t>(result.attempted, 1);
    result.failed = result.attempted;
  }

  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "esabench: CHECK FAILED: %s\n", failure.c_str());
  }
  bool correct = result.failures.empty();
  if (args.trace) {
    for (const auto& [name, value] : result.layer) {
      tracer.Count(name, value.first);
    }
    std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                       std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path)) {
      std::fprintf(stderr, "esabench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "esabench: %zu spans written to %s\n", tracer.spans().size(),
                   path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  if (args.trace) {
    for (const auto& [name, value] : result.layer) {
      PrintMetric(first, name, value.first, value.second);
    }
  } else {
    PrintMetric(first, "setup_s", result.setup_s, "s");
    PrintMetric(first, "reports_per_s", result.reports_per_s, "reports/s");
    PrintMetric(first, "op_p50_ms", result.op_p50_ms, "ms");
    PrintMetric(first, "op_tail_ms", result.op_tail_ms, "ms");
    PrintMetric(first, "cpu_us_per_report", result.cpu_us_per_report, "us");
    PrintMetric(first, "peak_rss_mb", PeakRssMb(), "MB");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace esabench

int main(int argc, char** argv) { return esabench::Main(argc, argv); }
