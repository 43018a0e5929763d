// vocab_blinded: the paper's §5.2 Vocab arrangement through Pipeline::Run —
// client sealing, blinded crowd IDs (El Gamal to Shuffler 2, blinded by
// Shuffler 1), secret-share encoding with t = T, randomized thresholding,
// analyzer inner open and Shamir recovery.  No service code runs.  Words
// follow the repository's Vocab stand-in (VocabWorkload's Zipf exponent,
// see VocabWords).
//
// The timed phase calls Pipeline::Run on kSets fixed input sets in turn;
// runs are whole rounds of kSets calls.  Traced, each Run is followed by a
// re-drive of the same words through Encoder::EncodeValue, BlindShuffler1/2
// ::Process, Analyzer::DecryptBatch and Analyzer::RecoverSecretShared with
// keys the benchmark owns, recorded as child spans of the Run (Table 3's
// columns, split further).
#include <thread>

#include "bench_util.h"
#include "checks.h"
#include "src/core/analyzer.h"
#include "src/core/blind_shuffler.h"
#include "src/core/pipeline.h"
#include "src/crypto/random.h"
#include "src/util/thread_pool.h"

namespace esabench {
namespace {

using prochlo::Bytes;

constexpr size_t kSets = 3;
constexpr uint64_t kRunInputs = 2000;
constexpr uint64_t kWarmupInputs = 2000;
constexpr uint64_t kThreshold = 20;
constexpr size_t kPayloadSize = 192;

// The bench-owned half of the traced run: the same stages Pipeline::Run
// chains, driven one public call at a time.
class Redrive {
 public:
  Redrive(const std::string& seed, const prochlo::ShufflerConfig& shuffler_config,
          size_t threads)
      : rng_(prochlo::ToBytes(seed + "/bench-keys")),
        shuffler1_(rng_),
        shuffler2_(rng_, shuffler_config),
        analyzer_(prochlo::Analyzer::Create(rng_)),
        pool_(threads),
        seed_(seed) {
    prochlo::EncoderConfig config;
    config.shuffler_public = shuffler1_.public_key();
    config.shuffler2_public = shuffler2_.elgamal_public_key();
    config.analyzer_public = analyzer_.public_key();
    config.crowd_mode = prochlo::CrowdIdMode::kBlinded;
    config.payload_size = kPayloadSize;
    config.secret_share_threshold = kThreshold;
    encoder_.emplace(config);
  }

  Histogram Run(const std::vector<std::string>& words, Tracer& tracer, int64_t parent,
                int64_t epoch) {
    // Encode as Pipeline::Run does: one shared Encoder, one DRBG per worker.
    const size_t workers = pool_.num_threads();
    std::vector<Bytes> reports(words.size());
    std::vector<uint8_t> failed(words.size(), 0);
    const size_t per_worker = (words.size() + workers - 1) / workers;
    double a = Now();
    pool_.ParallelFor(workers, [&](size_t w) {
      prochlo::SecureRandom rng(
          prochlo::ToBytes(seed_ + "/encode/" + std::to_string(epoch) + "/" + std::to_string(w)));
      for (size_t i = w * per_worker; i < std::min(words.size(), (w + 1) * per_worker); ++i) {
        auto report = encoder_->EncodeValue(words[i], rng);
        if (report.ok()) {
          reports[i] = std::move(report).value();
        } else {
          failed[i] = 1;
        }
      }
    });
    double b = Now();
    tracer.Record("encoder.seal", a, b, parent, epoch, words.size());
    for (uint8_t f : failed) {
      if (f != 0) {
        throw BenchError("re-drive: Encoder::EncodeValue failed");
      }
    }

    prochlo::SecureRandom stage_rng(prochlo::ToBytes(seed_ + "/stages/" + std::to_string(epoch)));
    prochlo::Rng noise_rng(static_cast<uint64_t>(epoch) + 1);
    a = Now();
    auto items = Must(shuffler1_.Process(reports, stage_rng, &pool_), "BlindShuffler1::Process");
    b = Now();
    tracer.Record("blind1.process", a, b, parent, epoch, reports.size());
    const size_t blinded = items.size();
    a = Now();
    auto inner = Must(shuffler2_.Process(std::move(items), stage_rng, noise_rng, &pool_),
                      "BlindShuffler2::Process");
    b = Now();
    tracer.Record("blind2.process", a, b, parent, epoch, blinded);
    a = Now();
    std::vector<Bytes> payloads = analyzer_.DecryptBatch(inner, &pool_);
    b = Now();
    tracer.Record("analyzer.open", a, b, parent, epoch, inner.size());
    a = Now();
    auto recovered = prochlo::Analyzer::RecoverSecretShared(payloads, kThreshold);
    b = Now();
    tracer.Record("analyzer.recover", a, b, parent, epoch, payloads.size());
    return recovered.values;
  }

 private:
  prochlo::SecureRandom rng_;
  prochlo::BlindShuffler1 shuffler1_;
  prochlo::BlindShuffler2 shuffler2_;
  prochlo::Analyzer analyzer_;
  prochlo::ThreadPool pool_;
  std::string seed_;
  std::optional<prochlo::Encoder> encoder_;
};

}  // namespace

WorkloadResult RunVocabBlinded(const Args& args, Tracer& tracer) {
  WorkloadResult result;
  const size_t threads = BenchThreads();
  const std::string seed = "esabench-vocab-blinded-" + std::to_string(args.seed);

  prochlo::Rng input_rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<std::vector<std::string>> words(kSets);
  std::vector<std::map<std::string, uint64_t>> counts(kSets);
  for (size_t set = 0; set < kSets; ++set) {
    words[set] = VocabWords(input_rng, kRunInputs);
    counts[set] = CountWords(words[set]);
  }
  const std::vector<std::string> warmup = VocabWords(input_rng, kWarmupInputs);

  prochlo::PipelineConfig config;
  config.use_blinded_crowd_ids = true;
  config.shuffler.threshold_mode = prochlo::ThresholdMode::kRandomized;
  config.shuffler.policy = prochlo::ThresholdPolicy{static_cast<double>(kThreshold), 10, 2};
  config.secret_share_threshold = kThreshold;
  config.payload_size = kPayloadSize;
  config.num_threads = threads;
  config.seed = seed;
  prochlo::Pipeline pipeline(config);
  // One warm-up Run the size of a timed one pays the first Run's one-off
  // costs (pool threads, allocator growth, first-touch of the key tables),
  // which a standing deployment pays once; at full size it also keeps
  // setup_s from being a sub-second burst.  Stats accumulate across Runs,
  // so its result is the base of the first per-Run delta.
  prochlo::PipelineResult before = Must(pipeline.RunValues(warmup), "warm-up Pipeline::Run");
  std::optional<Redrive> redrive;
  if (tracer.enabled()) {
    redrive.emplace(seed, config.shuffler, threads);
  }
  result.setup_s = Now();

  std::vector<double> run_seconds;
  std::vector<double> recover_seconds;
  double run_total = 0;
  double cpu_total = 0;
  prochlo::ShufflerStats blind1_total;
  prochlo::ShufflerStats blind2_total;
  uint64_t analyzer_received = 0;
  uint64_t analyzer_undecryptable = 0;
  uint64_t locked_groups = 0;
  for (uint64_t r = 0;; ++r) {
    const size_t set = r % kSets;
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    const int64_t span = tracer.Begin("pipeline.run", -1, static_cast<int64_t>(r));
    auto run = pipeline.RunValues(words[set]);
    tracer.End(span, kRunInputs);
    const double seconds = Now() - t0;
    cpu_total += ProcessCpuSeconds() - cpu0;
    run_total += seconds;
    run_seconds.push_back(seconds);
    result.attempted += kRunInputs;
    if (!run.ok()) {
      result.failed += kRunInputs;
      result.Check(false, "run " + std::to_string(r) + ": " + run.error().message);
      break;
    }
    const prochlo::PipelineResult& out = run.value();
    const std::string tag = "run " + std::to_string(r) + ": ";
    std::string error = CheckThresholdedHistogram(out.histogram, counts[set], kThreshold);
    result.Check(error.empty(), tag + error);

    // Blinded-pair books: Shuffler 1 forwards every well-formed report,
    // Shuffler 2 receives exactly those and balances its own books, and the
    // analyzer receives exactly Shuffler 2's survivors.
    const prochlo::ShufflerStats s1 = ShufflerDelta(out.shuffler1_stats, before.shuffler1_stats);
    const prochlo::ShufflerStats s2 = ShufflerDelta(out.shuffler_stats, before.shuffler_stats);
    const uint64_t received = out.analyzer_stats.received - before.analyzer_stats.received;
    analyzer_undecryptable +=
        out.analyzer_stats.undecryptable - before.analyzer_stats.undecryptable;
    result.Check(s1.received == kRunInputs && s1.malformed == 0 && s1.forwarded == kRunInputs,
                 tag + "shuffler 1 received " + std::to_string(s1.received) + ", forwarded " +
                     std::to_string(s1.forwarded));
    error = CheckShufflerConservation(s2, s1.forwarded);
    result.Check(error.empty(), tag + "shuffler 2: " + error);
    result.Check(received == s2.forwarded, tag + "analyzer received " + std::to_string(received) +
                                               " of " + std::to_string(s2.forwarded));
    AddShufflerStats(blind1_total, s1);
    AddShufflerStats(blind2_total, s2);
    analyzer_received += received;
    locked_groups += out.locked_groups;
    before = out;

    if (tracer.enabled()) {
      Histogram histogram = redrive->Run(words[set], tracer, span, static_cast<int64_t>(r));
      error = CheckThresholdedHistogram(histogram, counts[set], kThreshold);
      result.Check(error.empty(), "re-drive " + tag + error);
      recover_seconds.push_back(tracer.Named("analyzer.recover").back()->duration());
    }
    if ((r + 1) % kSets == 0 && run_total >= args.seconds) {
      break;
    }
  }

  const double inputs = static_cast<double>(result.attempted);
  result.reports_per_s = inputs / run_total;
  result.op_p50_ms = 1e3 * Median(run_seconds);
  // Fewer than 40 Runs per run: the median is the only tail with ten
  // samples beyond it.
  result.op_tail_ms = result.op_p50_ms;
  result.cpu_us_per_report = 1e6 * cpu_total / inputs;

  if (tracer.enabled()) {
    auto per_report_us = [&tracer](const char* name) {
      return 1e6 * tracer.TotalSeconds(name) /
             static_cast<double>(std::max<uint64_t>(1, tracer.TotalItems(name)));
    };
    result.Layer("encoder.seal_us_per_report", per_report_us("encoder.seal"), "us");
    result.Layer("blind1.us_per_report", per_report_us("blind1.process"), "us");
    result.Layer("blind2.us_per_report", per_report_us("blind2.process"), "us");
    result.Layer("analyzer.open_us_per_report", per_report_us("analyzer.open"), "us");
    result.Layer("analyzer.recover_s", Median(recover_seconds), "s");
    result.Layer("analyzer.received", static_cast<double>(analyzer_received), "count");
    result.Layer("analyzer.undecryptable", static_cast<double>(analyzer_undecryptable), "count");
    result.Layer("analyzer.locked_groups", static_cast<double>(locked_groups), "count");
    ReportShufflerCounts(result, "blind1", blind1_total);
    ReportShufflerCounts(result, "blind2", blind2_total);
    const double stages = tracer.TotalSeconds("encoder.seal") +
                          tracer.TotalSeconds("blind1.process") +
                          tracer.TotalSeconds("blind2.process") +
                          tracer.TotalSeconds("analyzer.open") +
                          tracer.TotalSeconds("analyzer.recover");
    result.Layer("trace.stage_sum_ratio", stages / run_total, "ratio");
    result.Layer("trace.reports_per_s", result.reports_per_s, "reports/s");
    result.Layer("trace.op_p50_ms", result.op_p50_ms, "ms");
  }
  return result;
}

}  // namespace esabench
