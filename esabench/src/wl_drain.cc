// epoch_drain: the crypto-bound drain of spooled epochs.
//
// Set-up seals kSlots epochs' worth of plain-hash Zipf reports and spools
// the first through the frontend's own accept path.  The timed phase drains
// one epoch per DrainSealedEpochs call (spool replay -> batched outer open ->
// shuffle -> kNaive threshold -> analyzer inner open -> histogram); between
// drains, untimed, the next slot's reports are accepted and cut, so ingest
// does no work inside a timed drain.  Runs are whole rounds of kSlots epochs.
//
// Traced, each drain is followed by a re-drive of the same plaintext inputs,
// sealed to keys the benchmark owns, through Spool, Shuffler::ProcessStream,
// Analyzer::DecryptBatch and Analyzer::HistogramOfValues, recorded as child
// spans of the drain they decompose; Shuffler::OpenStream alone is timed as
// a probe to split the outer open from shuffle + threshold.
#include <unistd.h>

#include <filesystem>

#include "bench_util.h"
#include "checks.h"
#include "src/core/analyzer.h"
#include "src/core/shuffler.h"
#include "src/crypto/random.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/spool.h"
#include "src/util/record_stream.h"
#include "src/util/thread_pool.h"

namespace esabench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;

constexpr size_t kSlots = 8;
constexpr uint64_t kEpochReports = 2000;
constexpr uint64_t kThreshold = 20;
constexpr size_t kShards = 4;

}  // namespace

WorkloadResult RunEpochDrain(const Args& args, Tracer& tracer) {
  WorkloadResult result;
  const size_t threads = BenchThreads();
  const std::string seed = "esabench-epoch-drain-" + std::to_string(args.seed);
  const std::string root = args.out_dir + "/epoch_drain-" + std::to_string(getpid());
  fs::remove_all(root);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{root};

  prochlo::Rng input_rng(args.seed * 0x9E3779B97F4A7C15ull + 2);
  std::vector<std::vector<std::string>> words(kSlots);
  std::vector<Histogram> reference(kSlots);
  for (size_t slot = 0; slot < kSlots; ++slot) {
    words[slot] = VocabWords(input_rng, kEpochReports);
    reference[slot] = ReferenceHistogram(CountWords(words[slot]), kThreshold);
  }

  prochlo::FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = prochlo::ThresholdMode::kNaive;
  config.pipeline.shuffler.policy.threshold = static_cast<double>(kThreshold);
  config.pipeline.num_threads = threads;
  config.pipeline.seed = seed;
  config.ingest.num_shards = kShards;
  config.spool_dir = root + "/spool";
  prochlo::ShufflerFrontend frontend(config);
  Must(frontend.Start(), "frontend.Start");

  std::vector<std::vector<Bytes>> sealed(kSlots);
  {
    const prochlo::Encoder encoder = frontend.MakeEncoder();
    ScopedSpan span(tracer, "encoder.seal");
    for (size_t slot = 0; slot < kSlots; ++slot) {
      sealed[slot] = Must(SealWords(encoder, words[slot], seed + "/" + std::to_string(slot),
                                    threads),
                          "seal epoch reports");
    }
    span.set_items(kSlots * kEpochReports);
  }

  // Traced only: the same plaintext inputs sealed to keys the benchmark
  // owns, spooled once per slot, for the stage-by-stage re-drive.
  std::optional<prochlo::Shuffler> shuffler;
  std::optional<prochlo::Analyzer> analyzer;
  std::optional<prochlo::Spool> redrive_spool;
  std::unique_ptr<prochlo::ThreadPool> pool;
  if (tracer.enabled()) {
    prochlo::SecureRandom key_rng(prochlo::ToBytes(seed + "/bench-keys"));
    prochlo::KeyPair shuffler_keys = prochlo::KeyPair::Generate(key_rng);
    prochlo::KeyPair analyzer_keys = prochlo::KeyPair::Generate(key_rng);
    prochlo::EncoderConfig encoder_config;
    encoder_config.shuffler_public = shuffler_keys.public_key;
    encoder_config.analyzer_public = analyzer_keys.public_key;
    const prochlo::Encoder encoder(encoder_config);
    shuffler.emplace(std::move(shuffler_keys), config.pipeline.shuffler);
    analyzer.emplace(std::move(analyzer_keys));
    pool = std::make_unique<prochlo::ThreadPool>(threads);
    redrive_spool.emplace(prochlo::SpoolConfig{root + "/redrive", /*fsync_on_seal=*/false});
    (void)Must(redrive_spool->Open(), "redrive spool.Open");
    for (size_t slot = 0; slot < kSlots; ++slot) {
      auto reports =
          Must(SealWords(encoder, words[slot], seed + "/redrive/" + std::to_string(slot), threads),
               "seal re-drive reports");
      for (const Bytes& report : reports) {
        Must(redrive_spool->Append(prochlo::ShardedIngest::ShardOfReport(report, kShards), slot,
                                   report),
             "redrive spool.Append");
      }
      Must(redrive_spool->SealEpoch(slot), "redrive spool.SealEpoch");
    }
  }

  auto spool_epoch = [&](size_t slot) {
    for (const Bytes& report : sealed[slot]) {
      Must(frontend.AcceptReport(report), "frontend.AcceptReport");
    }
    Must(frontend.CutEpoch(), "frontend.CutEpoch");
  };
  spool_epoch(0);
  result.setup_s = Now();

  std::vector<double> epoch_seconds;
  std::vector<double> self_seconds;
  std::vector<double> shuffle_threshold_seconds;
  std::vector<double> histogram_seconds;
  std::vector<int64_t> drain_spans;
  double drain_total = 0;
  double cpu_total = 0;
  prochlo::ShufflerStats shuffler_before;
  prochlo::ShufflerStats shuffler_total;
  prochlo::AnalyzerStats analyzer_before;
  uint64_t analyzer_received = 0;
  uint64_t analyzer_undecryptable = 0;
  for (uint64_t e = 0;; ++e) {
    const size_t slot = e % kSlots;
    if (e > 0) {
      spool_epoch(slot);
    }
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    const int64_t span = tracer.Begin("frontend.drain_epoch", -1, static_cast<int64_t>(e));
    prochlo::DrainReport drained = frontend.DrainSealedEpochs();
    tracer.End(span, kEpochReports);
    const double seconds = Now() - t0;
    cpu_total += ProcessCpuSeconds() - cpu0;
    drain_total += seconds;
    epoch_seconds.push_back(seconds);
    drain_spans.push_back(span);
    result.attempted += kEpochReports;

    if (!drained.ok() || drained.results.size() != 1) {
      result.failed += kEpochReports;
      result.Check(false, "epoch " + std::to_string(e) + ": drain failed" +
                              (drained.failure ? ": " + drained.failure->error.message : ""));
      break;
    }
    const prochlo::EpochResult& epoch = drained.results.front();
    result.Check(epoch.reports == kEpochReports,
                 "epoch " + std::to_string(e) + ": drained " + std::to_string(epoch.reports) +
                     " reports");
    std::string error = CheckExactHistogram(epoch.result.histogram, reference[slot]);
    result.Check(error.empty(), "epoch " + std::to_string(e) + ": " + error);
    prochlo::ShufflerStats delta = ShufflerDelta(epoch.result.shuffler_stats, shuffler_before);
    shuffler_before = epoch.result.shuffler_stats;
    AddShufflerStats(shuffler_total, delta);
    error = CheckShufflerConservation(delta, kEpochReports);
    result.Check(error.empty(), "epoch " + std::to_string(e) + ": " + error);
    analyzer_received += epoch.result.analyzer_stats.received - analyzer_before.received;
    analyzer_undecryptable +=
        epoch.result.analyzer_stats.undecryptable - analyzer_before.undecryptable;
    analyzer_before = epoch.result.analyzer_stats;

    if (tracer.enabled()) {
      const int64_t epoch_id = static_cast<int64_t>(e);
      double a = Now();
      std::vector<Bytes> batch;
      auto stream = redrive_spool->OpenEpochStream(slot);
      while (auto record = stream->Next()) {
        batch.push_back(std::move(*record));
      }
      double b = Now();
      tracer.Record("spool.replay", a, b, span, epoch_id, batch.size());

      prochlo::SecureRandom shuffle_rng(prochlo::ToBytes(seed + "/redrive-shuffle"));
      prochlo::Rng noise_rng(e);
      prochlo::VectorRecordStream records(batch);
      a = Now();
      auto inner = Must(shuffler->ProcessStream(records, shuffle_rng, noise_rng, pool.get()),
                        "re-drive Shuffler::ProcessStream");
      b = Now();
      const double process_seconds = b - a;
      tracer.Record("shuffler.process", a, b, span, epoch_id, batch.size());

      a = Now();
      std::vector<Bytes> payloads = analyzer->DecryptBatch(inner, pool.get());
      b = Now();
      tracer.Record("analyzer.open", a, b, span, epoch_id, inner.size());

      a = Now();
      Histogram histogram = prochlo::Analyzer::HistogramOfValues(payloads);
      b = Now();
      tracer.Record("analyzer.histogram", a, b, span, epoch_id, payloads.size());
      histogram_seconds.push_back(b - a);
      error = CheckExactHistogram(histogram, reference[slot]);
      result.Check(error.empty(), "re-drive epoch " + std::to_string(e) + ": " + error);

      prochlo::VectorRecordStream probe_records(batch);
      a = Now();
      auto views = Must(shuffler->OpenStream(probe_records, pool.get()),
                        "probe Shuffler::OpenStream");
      b = Now();
      tracer.Record("shuffler.open_probe", a, b, -1, epoch_id, views.size());
      shuffle_threshold_seconds.push_back(process_seconds - (b - a));
      self_seconds.push_back(tracer.SelfTime(span));
    }
    if ((e + 1) % kSlots == 0 && drain_total >= args.seconds) {
      break;
    }
  }

  const double reports = static_cast<double>(result.attempted);
  result.reports_per_s = reports / drain_total;
  result.op_p50_ms = 1e3 * Median(epoch_seconds);
  // Fewer than 40 epochs per run: the median is the only tail with ten
  // samples beyond it.
  result.op_tail_ms = result.op_p50_ms;
  result.cpu_us_per_report = 1e6 * cpu_total / reports;

  if (tracer.enabled()) {
    const prochlo::IngestStats ingest = frontend.ingest_stats();
    result.Layer("ingest.epochs_sealed", static_cast<double>(ingest.epochs_sealed), "count");
    result.Layer("ingest.size_cuts", static_cast<double>(ingest.size_cuts), "count");
    result.Layer("ingest.seal_failures", static_cast<double>(ingest.seal_failures), "count");
    result.Layer("encoder.seal_us_per_report",
                 1e6 * tracer.TotalSeconds("encoder.seal") /
                     static_cast<double>(tracer.TotalItems("encoder.seal")),
                 "us");
    result.Layer("frontend.drain_epoch_s", Median(epoch_seconds), "s");
    result.Layer("frontend.drain_self_s", Median(self_seconds), "s");
    result.Layer("spool.replay_us_per_report",
                 1e6 * tracer.TotalSeconds("spool.replay") /
                     static_cast<double>(tracer.TotalItems("spool.replay")),
                 "us");
    result.Layer("shuffler.open_us_per_report",
                 1e6 * tracer.TotalSeconds("shuffler.open_probe") /
                     static_cast<double>(tracer.TotalItems("shuffler.open_probe")),
                 "us");
    result.Layer("shuffler.shuffle_threshold_s", Median(shuffle_threshold_seconds), "s");
    ReportShufflerCounts(result, "shuffler", shuffler_total);
    result.Layer("shuffler.forward_ratio",
                 static_cast<double>(shuffler_total.forwarded) /
                     static_cast<double>(shuffler_total.received),
                 "ratio");
    result.Layer("analyzer.open_us_per_report",
                 1e6 * tracer.TotalSeconds("analyzer.open") /
                     static_cast<double>(std::max<uint64_t>(1, tracer.TotalItems("analyzer.open"))),
                 "us");
    result.Layer("analyzer.histogram_s", Median(histogram_seconds), "s");
    result.Layer("analyzer.received", static_cast<double>(analyzer_received), "count");
    result.Layer("analyzer.undecryptable", static_cast<double>(analyzer_undecryptable), "count");
    const double stages = tracer.TotalSeconds("spool.replay") +
                          tracer.TotalSeconds("shuffler.process") +
                          tracer.TotalSeconds("analyzer.open") +
                          tracer.TotalSeconds("analyzer.histogram");
    result.Layer("trace.stage_sum_ratio", stages / drain_total, "ratio");
    result.Layer("trace.reports_per_s", result.reports_per_s, "reports/s");
    result.Layer("trace.op_p50_ms", result.op_p50_ms, "ms");
  }
  return result;
}

}  // namespace esabench
