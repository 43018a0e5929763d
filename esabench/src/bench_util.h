// Shared plumbing for the ESA benchmark's workloads: run arguments, clocks,
// process resource readings, order statistics, seeded Zipf inputs, parallel
// report sealing, and the result every workload hands back to main().
#ifndef ESABENCH_SRC_BENCH_UTIL_H_
#define ESABENCH_SRC_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/encoder.h"
#include "src/core/shuffler.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "trace.h"

namespace esabench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch root inside the checkout: spools, WAL files and traces.
  std::string out_dir = ".bench_out";
};

// Program thread counts (ingest workers, pipeline pool, shard groups, client
// connections) are all this value: 4, or fewer on a smaller machine.
// `esabench --threads <n>` overrides it for reference figures (e.g. the
// single-threaded drain); the benchmark's own runs never pass it.
size_t BenchThreads();
void SetBenchThreads(size_t threads);

// Seconds on the steady clock since main() began — the origin of setup_s.
double Now();
void MarkProcessStart();

// User + system CPU seconds of the whole process (all threads), of the
// calling thread, and of another running thread of this process.
double ProcessCpuSeconds();
double ThisThreadCpuSeconds();
double ThreadCpuSeconds(std::thread& thread);
// Resident-set high-water mark of the process, in MB.
double PeakRssMb();

double Median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

// Every workload's words follow the repository's Vocab stand-in
// (src/workload/vocab.h): Zipf over ranked words with VocabConfig's exponent
// (1.07), over kVocabulary words rather than VocabConfig's million: at 2000
// reports an epoch, most of a million-word tail expects far less than one
// report per word, which the fixed count profile of VocabWords cannot
// represent.  With 400 words a 2000-report epoch has 15 words (56% of the
// reports) at or above T = 20 and 380 words (44%) below it, so a drain pays
// both for the survivors' inner opens and for the dropped crowds.
constexpr uint64_t kVocabulary = 400;

// `count` words over kVocabulary words with the Zipf count profile of
// VocabWorkload: rank k gets floor(count * P(k)) reports and the largest
// remainders take the leftover, so every seed has the same profile and the
// same threshold survivors; `rng` picks which VocabWorkload::WordName labels
// the ranks get and the order.
std::vector<std::string> VocabWords(prochlo::Rng& rng, uint64_t count);

// Exact word counts of `words`.
std::map<std::string, uint64_t> CountWords(const std::vector<std::string>& words);

// Seals (crowd = value = word) reports with Encoder::BatchSealReports in
// chunks of 256 handed out to `threads` threads from a shared counter: a
// thread on a slower core seals fewer chunks, so the wall time follows the
// cores' combined speed, not the slowest core's (set-up time is one cold
// measurement per run, and on a shared host the cores' speeds drift apart).
// Each chunk has its own DRBG forked from `seed`, so the output does not
// depend on which thread sealed it.  Output order matches `words`.
prochlo::Result<std::vector<prochlo::Bytes>> SealWords(const prochlo::Encoder& encoder,
                                                       const std::vector<std::string>& words,
                                                       const std::string& seed,
                                                       size_t threads);

// A workload's outcome.  End-to-end metrics are filled by every workload;
// `layer` holds the per-layer metrics of a traced run.
struct WorkloadResult {
  std::vector<std::string> failures;  // failed checks; empty = correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double reports_per_s = 0;
  double op_p50_ms = 0;
  double op_tail_ms = 0;
  double cpu_us_per_report = 0;
  std::map<std::string, std::pair<double, std::string>> layer;  // name -> (value, unit)

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

// Aborts the workload (the run reports correct=false) when a program call
// that must succeed fails.
class BenchError : public std::exception {
 public:
  explicit BenchError(std::string message) : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};
void Must(const prochlo::Status& status, const std::string& what);
template <typename T>
T Must(prochlo::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw BenchError(what + ": " + result.error().message);
  }
  return std::move(result).value();
}

// a - b, field by field (program stats accumulate across calls).
prochlo::ShufflerStats ShufflerDelta(const prochlo::ShufflerStats& a,
                                     const prochlo::ShufflerStats& b);
void AddShufflerStats(prochlo::ShufflerStats& total, const prochlo::ShufflerStats& delta);
// Emits the seven ShufflerStats counts as per-layer metrics <prefix>.<field>.
void ReportShufflerCounts(WorkloadResult& result, const std::string& prefix,
                          const prochlo::ShufflerStats& stats);

WorkloadResult RunIngestWal(const Args& args, Tracer& tracer);
WorkloadResult RunEpochDrain(const Args& args, Tracer& tracer);
WorkloadResult RunVocabBlinded(const Args& args, Tracer& tracer);
WorkloadResult RunClusterMerge(const Args& args, Tracer& tracer);

}  // namespace esabench

#endif  // ESABENCH_SRC_BENCH_UTIL_H_
