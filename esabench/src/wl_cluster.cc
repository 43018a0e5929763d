// cluster_merge: ShardGroups (WAL on, fsync on) behind a Router, one
// ClusterClient routing sealed plain-hash reports.  Per epoch: send -> all
// ACKed -> EpochCoordinator::CutEpochAll -> MergeEpoch (every group's
// partial drain, which inner-opens every report, then HistogramMerge).
// Runs are whole rounds of kSlots epochs; reports are sealed in set-up and
// re-sent each round under fresh sequence numbers.
//
// Traced, MergeEpoch is replaced by the calls it makes, timed one by one:
// DrainNextEpochPartial on each group in turn, then HistogramMerge::Merge.
// The coordinator's merge_waits / merge_shortfalls therefore read 0 in a
// traced run; the untraced run's merge goes through MergeEpoch itself.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench_util.h"
#include "checks.h"
#include "src/service/cluster/coordinator.h"
#include "src/service/cluster/merge.h"
#include "src/service/cluster/router.h"
#include "src/service/cluster/shard_group.h"

namespace esabench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;

constexpr size_t kSlots = 6;
constexpr uint64_t kEpochReports = 2000;
constexpr uint64_t kThreshold = 20;
constexpr auto kTimeout = std::chrono::milliseconds(120000);

}  // namespace

WorkloadResult RunClusterMerge(const Args& args, Tracer& tracer) {
  WorkloadResult result;
  const size_t threads = BenchThreads();
  const size_t num_groups = threads;
  const std::string seed = "esabench-cluster-merge-" + std::to_string(args.seed);
  const std::string root = args.out_dir + "/cluster_merge-" + std::to_string(getpid());
  fs::remove_all(root);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{root};

  prochlo::Rng input_rng(args.seed * 0x9E3779B97F4A7C15ull + 4);
  std::vector<std::vector<std::string>> words(kSlots);
  std::vector<Histogram> reference(kSlots);
  for (size_t slot = 0; slot < kSlots; ++slot) {
    words[slot] = VocabWords(input_rng, kEpochReports);
    reference[slot] = ReferenceHistogram(CountWords(words[slot]), kThreshold);
  }

  prochlo::FrontendConfig base;
  base.pipeline.shuffler.threshold_mode = prochlo::ThresholdMode::kNaive;
  base.pipeline.shuffler.policy.threshold = static_cast<double>(kThreshold);
  base.pipeline.num_threads = threads;
  base.pipeline.seed = seed;
  base.ingest.num_shards = 4;

  std::vector<std::unique_ptr<prochlo::ShardGroup>> owned;
  std::vector<prochlo::ShardGroup*> groups;
  for (size_t g = 1; g <= num_groups; ++g) {
    prochlo::ShardGroupConfig group_config;
    group_config.group_id = g;
    group_config.frontend = base;
    group_config.frontend.spool_dir = root + "/group-" + std::to_string(g);
    group_config.workers = prochlo::WorkerPoolConfig{/*workers=*/1, /*ring_capacity=*/1024};
    owned.push_back(std::make_unique<prochlo::ShardGroup>(group_config));
    groups.push_back(owned.back().get());
    Must(groups.back()->Start(), "ShardGroup::Start");
  }
  prochlo::Router router(groups);
  router.Start();
  prochlo::EpochCoordinator coordinator(groups);
  coordinator.Start();
  prochlo::HistogramMerge merge(base.pipeline);

  std::vector<std::vector<Bytes>> sealed(kSlots);
  {
    const prochlo::Encoder encoder = groups.front()->frontend().MakeEncoder();
    ScopedSpan span(tracer, "encoder.seal");
    for (size_t slot = 0; slot < kSlots; ++slot) {
      sealed[slot] = Must(SealWords(encoder, words[slot], seed + "/" + std::to_string(slot),
                                    threads),
                          "seal epoch reports");
    }
    span.set_items(kSlots * kEpochReports);
  }

  prochlo::ClusterClient client(
      router.CurrentMap(),
      [&groups](uint64_t group_id) -> prochlo::Result<std::unique_ptr<prochlo::ByteStream>> {
        for (prochlo::ShardGroup* group : groups) {
          if (group->group_id() == group_id) {
            return group->Connect();
          }
        }
        return prochlo::Error{"esabench: unknown group"};
      });
  Must(client.Connect(), "ClusterClient::Connect");
  result.setup_s = Now();

  std::vector<double> cut_to_histogram;
  std::vector<double> ack_wait;
  std::vector<double> cut_all;
  std::vector<double> drain_sum;
  std::vector<double> drain_max;
  std::vector<double> merge_seconds;
  double run_total = 0;
  double cpu_total = 0;
  prochlo::ShufflerStats shuffler_total;
  uint64_t analyzer_received = 0;
  uint64_t analyzer_undecryptable = 0;
  for (uint64_t e = 0;; ++e) {
    const size_t slot = e % kSlots;
    const int64_t epoch_id = static_cast<int64_t>(e);
    const std::string tag = "epoch " + std::to_string(e) + ": ";
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = Now();
    const int64_t epoch_span = tracer.Begin("cluster.epoch", -1, epoch_id);
    {
      ScopedSpan span(tracer, "cluster.send", epoch_span, epoch_id);
      for (const Bytes& report : sealed[slot]) {
        Must(client.SendReport(report), "ClusterClient::SendReport");
      }
      span.set_items(kEpochReports);
    }
    double a = Now();
    {
      ScopedSpan span(tracer, "cluster.ack_wait", epoch_span, epoch_id);
      result.Check(client.WaitForAllAcked(kTimeout), tag + "not every report was ACKed");
    }
    const double t_cut = Now();
    ack_wait.push_back(t_cut - a);
    const uint64_t epoch = groups.front()->frontend().current_epoch();
    {
      ScopedSpan span(tracer, "cluster.cut_all", epoch_span, epoch_id);
      Must(coordinator.CutEpochAll(), "EpochCoordinator::CutEpochAll");
    }
    cut_all.push_back(Now() - t_cut);

    prochlo::ClusterEpochResult merged;
    if (tracer.enabled()) {
      std::vector<prochlo::EpochPartial> partials;
      double sum = 0;
      double max = 0;
      for (prochlo::ShardGroup* group : groups) {
        a = Now();
        auto drained = Must(group->frontend().DrainNextEpochPartial(),
                            "DrainNextEpochPartial");
        const double b = Now();
        if (!drained.has_value() || drained->epoch != epoch) {
          merged.missing_groups.push_back(group->group_id());
          continue;
        }
        tracer.Record("cluster.partial_drain", a, b, epoch_span, epoch_id, drained->reports);
        sum += b - a;
        max = std::max(max, b - a);
        for (const auto& [hash, crowd] : drained->partial.crowds) {
          for (const auto& [value, count] : crowd.value_counts) {
            analyzer_received += count;
          }
          analyzer_received += crowd.undecryptable;
          analyzer_undecryptable += crowd.undecryptable;
        }
        partials.push_back(std::move(drained->partial));
      }
      drain_sum.push_back(sum);
      drain_max.push_back(max);
      a = Now();
      ScopedSpan span(tracer, "cluster.merge", epoch_span, epoch_id);
      merged.merged.epoch = epoch;
      merged.merged.result = Must(merge.Merge(epoch, partials), "HistogramMerge::Merge");
      merged.groups_merged = partials.size();
      merge_seconds.push_back(Now() - a);
    } else {
      merged = Must(coordinator.MergeEpoch(epoch, merge, kTimeout),
                    "EpochCoordinator::MergeEpoch");
    }
    const double t_end = Now();
    tracer.End(epoch_span, kEpochReports);
    cpu_total += ProcessCpuSeconds() - cpu0;
    run_total += t_end - t0;
    cut_to_histogram.push_back(t_end - t_cut);
    result.attempted += kEpochReports;

    std::string error = CheckClusterMerge(merged.groups_merged, num_groups,
                                          merged.missing_groups, {}, 0);
    result.Check(error.empty(), tag + error);
    error = CheckExactHistogram(merged.merged.result.histogram, reference[slot]);
    result.Check(error.empty(), tag + error);
    error = CheckShufflerConservation(merged.merged.result.shuffler_stats, kEpochReports);
    result.Check(error.empty(), tag + error);
    AddShufflerStats(shuffler_total, merged.merged.result.shuffler_stats);
    if (!result.failures.empty()) {
      result.failed += kEpochReports;
      break;
    }
    if ((e + 1) % kSlots == 0 && run_total >= args.seconds) {
      break;
    }
  }

  const prochlo::ClusterClientStats client_stats = client.stats();
  client.Close();
  coordinator.Stop();
  std::vector<uint64_t> acks;
  std::vector<double> accepted;
  for (prochlo::ShardGroup* group : groups) {
    Must(group->Stop(), "ShardGroup::Stop");
    const prochlo::ConnectionAckBook book = group->server().ack_book();
    const prochlo::FrameStreamStats frames = group->server().stats();
    acks.push_back(book.acked);
    accepted.push_back(static_cast<double>(group->frontend().stats().reports_accepted.load()));
    result.Check(book.nacked == 0 && book.duplicates_suppressed == 0,
                 "group " + std::to_string(group->group_id()) + ": " +
                     std::to_string(book.nacked) + " NACKs, " +
                     std::to_string(book.duplicates_suppressed) + " duplicates");
    // Redirect NACKs are counted in nacked as well as in redirects_sent.
    result.Check(frames.frames_report == book.acked + book.nacked + book.duplicates_suppressed,
                 "group " + std::to_string(group->group_id()) +
                     ": frames_report != acked + nacked + duplicates_suppressed");
  }
  std::string error = CheckClusterMerge(num_groups, num_groups, {}, acks, result.attempted);
  result.Check(error.empty(), error);

  const double reports = static_cast<double>(result.attempted);
  result.reports_per_s = reports / run_total;
  result.op_p50_ms = 1e3 * Median(cut_to_histogram);
  // Fewer than 40 epochs per run: the median is the only tail with ten
  // samples beyond it.
  result.op_tail_ms = result.op_p50_ms;
  result.cpu_us_per_report = 1e6 * cpu_total / reports;

  if (tracer.enabled()) {
    double mean = 0;
    for (double value : accepted) {
      mean += value / static_cast<double>(accepted.size());
    }
    result.Layer("encoder.seal_us_per_report",
                 1e6 * tracer.TotalSeconds("encoder.seal") /
                     static_cast<double>(tracer.TotalItems("encoder.seal")),
                 "us");
    result.Layer("cluster.ack_wait_s", Median(ack_wait), "s");
    result.Layer("cluster.cut_all_s", Median(cut_all), "s");
    result.Layer("cluster.partial_drain_s_sum", Median(drain_sum), "s");
    result.Layer("cluster.partial_drain_s_max", Median(drain_max), "s");
    result.Layer("cluster.merge_s", Median(merge_seconds), "s");
    result.Layer("cluster.group_skew",
                 *std::max_element(accepted.begin(), accepted.end()) / mean, "ratio");
    result.Layer("router.redirects_followed", static_cast<double>(client_stats.redirects_followed),
                 "count");
    result.Layer("coordinator.merge_waits",
                 static_cast<double>(coordinator.merge_stats().merge_waits.load()), "count");
    result.Layer("coordinator.merge_shortfalls",
                 static_cast<double>(coordinator.merge_stats().merge_shortfalls.load()), "count");
    ReportShufflerCounts(result, "shuffler", shuffler_total);
    result.Layer("shuffler.forward_ratio",
                 static_cast<double>(shuffler_total.forwarded) /
                     static_cast<double>(shuffler_total.received),
                 "ratio");
    result.Layer("analyzer.received", static_cast<double>(analyzer_received), "count");
    result.Layer("analyzer.undecryptable", static_cast<double>(analyzer_undecryptable), "count");
    const double stages = tracer.TotalSeconds("cluster.send") +
                          tracer.TotalSeconds("cluster.ack_wait") +
                          tracer.TotalSeconds("cluster.cut_all") +
                          tracer.TotalSeconds("cluster.partial_drain") +
                          tracer.TotalSeconds("cluster.merge");
    result.Layer("trace.stage_sum_ratio", stages / run_total, "ratio");
    result.Layer("trace.reports_per_s", result.reports_per_s, "reports/s");
    result.Layer("trace.op_p50_ms", result.op_p50_ms, "ms");
  }
  return result;
}

}  // namespace esabench
