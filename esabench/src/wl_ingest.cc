// ingest_wal: the acked ingest tier over loopback TCP, WAL with fsync on.
//
//   BenchThreads() clients ──TCP──► TcpListener ──► FrameServer / AckRegistry
//     ──► IngestWorkerPool ──► ShufflerFrontend (group-commit WAL, fsync)
//     ──► ACK after the durable commit
//
// Epochs are size-cut into the spool and no drain runs.  A pool of
// kPoolReports reports is sealed in set-up and re-sent under fresh sequence
// numbers (the ingest tier never opens them).  The load generator speaks the
// wire protocol itself so each ACK is matched to its sequence number:
//
//   phase 1 (open loop, the first half of --seconds): every connection sends
//     on a fixed schedule at kOfferedRate / connections reports/s, whatever
//     the ACKs do; each report is timed from its due send time to its ACK.
//   phase 2 (closed loop, the second half): every connection keeps kWindow
//     unACKed reports in flight.  The throughput is the reports ACKed in the
//     phase over its wall time (a size cut every few hundred milliseconds
//     stalls every ACK, so sub-second windows would count whole epochs),
//     and the CPU per report is the server's: process CPU less the client
//     threads' own CPU clocks, over the reports ACKed in the phase.
//
// Afterwards a fresh frontend is started on the spool (WAL recovery), and the
// spool's report multiset is read back and compared with what was sent.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench_util.h"
#include "checks.h"
#include "src/crypto/sha256.h"
#include "src/service/cluster/shard_group.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/spool.h"
#include "src/service/wire.h"

namespace esabench {
namespace {

namespace fs = std::filesystem;
using prochlo::Bytes;

constexpr size_t kPoolReports = 16384;
// Reports/s over all connections, about a twentieth of the closed-loop
// capacity.  Each epoch's size cut (one every kMaxEpochReports /
// kOfferedRate seconds) stalls every ACK for tens of milliseconds; at this
// rate the reports queued behind a stall are about one percent of the
// samples, so the p90 stays on the commit path while the traced p99 sits
// inside the stall.  At 8000 reports/s they were a few percent, and a
// host-side CPU steal burst that stretched the stalls pushed the p90 into
// them (0.4 ms -> 9-96 ms in 2 of 10 runs).
constexpr double kOfferedRate = 4000;
constexpr size_t kWindow = 64;         // closed-loop unACKed reports per connection
constexpr size_t kMaxEpochReports = 20000;
constexpr size_t kProbeReports = 16384;
constexpr auto kAckTimeout = std::chrono::seconds(60);

std::string Digest(prochlo::ByteSpan report) {
  auto digest = prochlo::Sha256::Hash(report);
  return std::string(digest.begin(), digest.end());
}

// One client connection: senders on the caller's threads and a reader thread
// matching ACK frames to sequence numbers.  Sequence s carries pool report
// ReportIndex(s); the first `timed` sequence numbers (the open loop) also
// keep their due and ACK times.
class Connection {
 public:
  Connection(std::unique_ptr<prochlo::ByteStream> stream, uint64_t session, size_t timed)
      : stream_(std::move(stream)), due_(timed), acked_at_(timed) {
    Must(stream_->Write(prochlo::EncodeHelloFrame(session)), "write HELLO");
    reader_ = std::thread([this] { ReadLoop(); });
  }
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends `report` as the next sequence number, due at `due`.  Runs on a
  // sender thread, so a failed write is counted, never thrown.
  void Send(const Bytes& report, double due) {
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = ack_count_.size();
      ack_count_.push_back(0);
      if (seq < due_.size()) {
        due_[seq] = due;
      }
      outstanding_++;
    }
    if (!stream_->Write(prochlo::EncodeReportFrame(seq, report)).ok()) {
      // The report stays outstanding; the unACKed check reports it.
      std::lock_guard<std::mutex> lock(mu_);
      write_failures_++;
    }
  }

  uint64_t next_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ack_count_.size();
  }

  void WaitForWindow(size_t window) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ < window || closed_; });
  }

  // CPU seconds the ACK reader thread has used so far.
  double reader_cpu_seconds() { return ThreadCpuSeconds(reader_); }

  bool WaitForAllAcked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kAckTimeout, [&] { return outstanding_ == 0 || closed_; }) &&
           outstanding_ == 0;
  }

  // Half-closes, then waits for the server to finish and close its side.
  void Close() {
    if (reader_.joinable()) {
      stream_->CloseWrite();
      reader_.join();
    }
  }

  // Read after Close().
  uint64_t nacked() const { return nacked_; }
  uint64_t write_failures() const { return write_failures_; }
  double last_ack() const { return last_ack_; }
  const std::vector<uint8_t>& ack_count() const { return ack_count_; }
  const std::vector<double>& due() const { return due_; }
  const std::vector<double>& acked_at() const { return acked_at_; }

 private:
  void ReadLoop() {
    prochlo::StreamingFrameDecoder decoder;
    std::vector<prochlo::Frame> frames;
    uint8_t buffer[16384];
    for (;;) {
      auto read = stream_->Read(std::span<uint8_t>(buffer, sizeof(buffer)));
      if (!read.ok() || read.value() == 0) {
        break;
      }
      frames.clear();
      decoder.Feed(prochlo::ByteSpan(buffer, read.value()), frames);
      const double now = Now();
      std::lock_guard<std::mutex> lock(mu_);
      for (const prochlo::Frame& frame : frames) {
        if (frame.seq >= ack_count_.size()) {
          continue;
        }
        if (frame.type == prochlo::FrameType::kAck) {
          if (ack_count_[frame.seq] < 255 && ack_count_[frame.seq]++ == 0) {
            outstanding_--;
            last_ack_ = now;
            if (frame.seq < acked_at_.size()) {
              acked_at_[frame.seq] = now;
            }
          }
        } else if (frame.type == prochlo::FrameType::kNack) {
          nacked_++;
        }
      }
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  std::unique_ptr<prochlo::ByteStream> stream_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint8_t> ack_count_;  // per sequence number
  std::vector<double> due_;         // open-loop sequence numbers only
  std::vector<double> acked_at_;
  uint64_t outstanding_ = 0;
  uint64_t nacked_ = 0;
  uint64_t write_failures_ = 0;
  double last_ack_ = 0;
  bool closed_ = false;
  std::thread reader_;  // last: it uses every member above
};

// The traced run's two re-driven stages of one report's way through the
// closed loop, each recorded as a root span over kProbeReports pool reports
// (they ran after the closed loop, so they are not its children):
//
//   wal.commit  AcceptRoutedReportAsync + BarrierIngest on a fresh WAL
//               frontend, in group commits of `batch` reports (the batch
//               size the closed loop's group commits formed);
//   wire.frame  EncodeReportFrame + StreamingFrameDecoder, the framing both
//               ends of a connection do per report.
void ProbeWalCommit(const prochlo::FrontendConfig& base, const std::string& dir,
                    const std::vector<Bytes>& reports, size_t batch, Tracer& tracer) {
  prochlo::FrontendConfig config = base;
  config.spool_dir = dir;
  prochlo::ShufflerFrontend frontend(config);
  Must(frontend.Start(), "probe frontend.Start");
  std::atomic<uint64_t> committed{0};
  const double t0 = Now();
  for (size_t i = 0; i < kProbeReports; i += batch) {
    for (size_t j = i; j < std::min(kProbeReports, i + batch); ++j) {
      const Bytes& report = reports[j % reports.size()];
      Must(frontend.AcceptRoutedReportAsync(
               prochlo::ShardedIngest::ShardOfReport(report, config.ingest.num_shards), report,
               prochlo::ReportContext{},
               [&committed](const prochlo::Status& status) {
                 if (status.ok()) {
                   committed.fetch_add(1);
                 }
               }),
           "probe AcceptRoutedReportAsync");
    }
    Must(frontend.BarrierIngest(), "probe BarrierIngest");
  }
  tracer.Record("wal.commit", t0, Now(), -1, -1, kProbeReports);
  if (committed.load() != kProbeReports) {
    throw BenchError("WAL probe: not every report committed");
  }
}

void ProbeWireFrame(const std::vector<Bytes>& reports, Tracer& tracer) {
  prochlo::StreamingFrameDecoder decoder;
  std::vector<prochlo::Frame> frames;
  uint64_t decoded = 0;
  const double t0 = Now();
  for (size_t i = 0; i < kProbeReports; ++i) {
    const Bytes frame = prochlo::EncodeReportFrame(i, reports[i % reports.size()]);
    frames.clear();
    decoder.Feed(frame, frames);
    decoded += frames.size();
  }
  tracer.Record("wire.frame", t0, Now(), -1, -1, kProbeReports);
  if (decoded != kProbeReports) {
    throw BenchError("wire probe: frames lost in the decoder");
  }
}

// Seconds per report of the spans named `name`.
double PerReportSeconds(const Tracer& tracer, const std::string& name) {
  return tracer.TotalSeconds(name) /
         static_cast<double>(std::max<uint64_t>(1, tracer.TotalItems(name)));
}

}  // namespace

WorkloadResult RunIngestWal(const Args& args, Tracer& tracer) {
  WorkloadResult result;
  const size_t threads = BenchThreads();
  const size_t connections = threads;
  const std::string seed = "esabench-ingest-wal-" + std::to_string(args.seed);
  const std::string root = args.out_dir + "/ingest_wal-" + std::to_string(getpid());
  fs::remove_all(root);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{root};

  prochlo::FrontendConfig config;
  config.pipeline.seed = seed;
  config.ingest.num_shards = 4;
  config.ingest.max_epoch_reports = kMaxEpochReports;
  config.spool_dir = root + "/spool";

  prochlo::ShardGroupConfig group_config;
  group_config.group_id = 1;
  group_config.frontend = config;
  group_config.workers = prochlo::WorkerPoolConfig{threads, /*ring_capacity=*/1024};
  group_config.listen_tcp = true;
  auto group = std::make_unique<prochlo::ShardGroup>(group_config);
  Must(group->Start(), "ShardGroup::Start");

  prochlo::Rng input_rng(args.seed * 0x9E3779B97F4A7C15ull + 1);
  const std::vector<std::string> words = VocabWords(input_rng, kPoolReports);
  std::vector<Bytes> pool;
  {
    ScopedSpan span(tracer, "encoder.seal");
    pool = Must(SealWords(group->frontend().MakeEncoder(), words, seed, threads),
                "seal report pool");
    span.set_items(pool.size());
  }

  const double phase_seconds = args.seconds / 2;
  const double rate = kOfferedRate / static_cast<double>(connections);
  const uint64_t per_connection = static_cast<uint64_t>(phase_seconds * rate);
  auto report_of = [&](size_t c, uint64_t seq) -> const Bytes& {
    return pool[(seq * connections + c) % pool.size()];
  };
  std::vector<std::unique_ptr<Connection>> clients;
  for (size_t c = 0; c < connections; ++c) {
    auto stream = Must(prochlo::TcpConnect("127.0.0.1", group->port()), "TcpConnect");
    clients.push_back(std::make_unique<Connection>(std::move(stream), c + 1, per_connection));
  }
  result.setup_s = Now();

  // ---- phase 1: open loop ----
  std::vector<std::vector<double>> lags(connections);
  const double t1 = Now() + 0.01;
  const int64_t open_span = tracer.Begin("gen.open_loop");
  {
    std::vector<std::thread> senders;
    for (size_t c = 0; c < connections; ++c) {
      senders.emplace_back([&, c] {
        const auto origin = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(t1 - Now()));
        for (uint64_t i = 0; i < per_connection; ++i) {
          // Connections are staggered by a fraction of the send interval.
          const double offset =
              (static_cast<double>(i) + static_cast<double>(c) / static_cast<double>(connections)) /
              rate;
          std::this_thread::sleep_until(
              origin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(offset)));
          const double due = t1 + offset;
          lags[c].push_back(Now() - due);
          clients[c]->Send(report_of(c, i), due);
        }
      });
    }
    for (auto& sender : senders) {
      sender.join();
    }
  }
  for (auto& client : clients) {
    result.Check(client->WaitForAllAcked(), "open loop: reports left unACKed");
  }
  tracer.End(open_span, per_connection * connections);

  // ---- phase 2: closed loop ----
  // Client threads (senders and ACK readers) run in this process; their own
  // CPU clocks are taken out of the process CPU so that only the server's
  // work is charged per report.
  auto client_reader_cpu = [&] {
    double seconds = 0;
    for (auto& client : clients) {
      seconds += client->reader_cpu_seconds();
    }
    return seconds;
  };
  const prochlo::IngestWal::Stats wal_before = group->frontend().wal()->stats();
  const double reader_cpu0 = client_reader_cpu();
  const double cpu2 = ProcessCpuSeconds();
  const double t2 = Now();
  const int64_t closed_span = tracer.Begin("gen.closed_loop");
  std::vector<double> sender_cpu(connections, 0);
  {
    std::vector<std::thread> senders;
    for (size_t c = 0; c < connections; ++c) {
      senders.emplace_back([&, c] {
        while (Now() - t2 < phase_seconds) {
          clients[c]->WaitForWindow(kWindow);
          clients[c]->Send(report_of(c, clients[c]->next_seq()), Now());
        }
        sender_cpu[c] = ThisThreadCpuSeconds();
      });
    }
    for (auto& sender : senders) {
      sender.join();
    }
  }
  for (auto& client : clients) {
    result.Check(client->WaitForAllAcked(), "closed loop: reports left unACKed");
  }
  tracer.End(closed_span);
  double server_cpu = ProcessCpuSeconds() - cpu2 - (client_reader_cpu() - reader_cpu0);
  for (double seconds : sender_cpu) {
    server_cpu -= seconds;
  }
  const prochlo::IngestWal::Stats wal_after = group->frontend().wal()->stats();
  for (auto& client : clients) {
    client->Close();
  }

  // ---- per-sequence books ----
  std::vector<double> latencies;
  uint64_t phase2_acked = 0;
  double phase2_end = t2;
  std::map<std::string, uint64_t> sent_digests;
  for (size_t c = 0; c < connections; ++c) {
    const Connection& client = *clients[c];
    const uint64_t sent = client.ack_count().size();
    result.attempted += sent;
    result.Check(client.nacked() == 0 && client.write_failures() == 0,
                 "connection " + std::to_string(c) + ": " + std::to_string(client.nacked()) +
                     " NACKs, " + std::to_string(client.write_failures()) + " failed writes");
    for (uint64_t seq = 0; seq < sent; ++seq) {
      if (client.ack_count()[seq] != 1) {
        result.failed++;
      } else if (seq < per_connection) {
        const double latency = 1e3 * (client.acked_at()[seq] - client.due()[seq]);
        latencies.push_back(latency);
      } else {
        phase2_acked++;
      }
    }
    phase2_end = std::max(phase2_end, client.last_ack());
    for (uint64_t i = 0; i < pool.size() && i < sent; ++i) {
      // Sequence numbers i, i + P, i + 2P, ... carry the same pool report.
      const uint64_t copies = (sent - i + pool.size() - 1) / pool.size();
      sent_digests[Digest(report_of(c, i))] += copies;
    }
  }
  result.Check(result.failed == 0,
               std::to_string(result.failed) + " sequence numbers not ACKed exactly once");
  result.reports_per_s = static_cast<double>(phase2_acked) / (phase2_end - t2);
  result.op_p50_ms = Percentile(latencies, 0.50);
  result.op_tail_ms = Percentile(latencies, 0.90);
  result.cpu_us_per_report = 1e6 * server_cpu / static_cast<double>(phase2_acked);

  // ---- server books, then read the spool back through a fresh frontend ----
  Must(group->Stop(), "ShardGroup::Stop");
  const prochlo::ConnectionAckBook book = group->server().ack_book();
  const prochlo::FrameStreamStats frames = group->server().stats();
  result.Check(frames.frames_report == book.acked + book.nacked + book.duplicates_suppressed,
               "frames_report " + std::to_string(frames.frames_report) +
                   " != acked + nacked + duplicates_suppressed");
  result.Check(book.acked == result.attempted && book.nacked == 0,
               "server ACKed " + std::to_string(book.acked) + " of " +
                   std::to_string(result.attempted));
  const prochlo::WorkerPoolStats pool_stats = group->pool().stats();
  const prochlo::IngestWal::Stats wal = group->frontend().wal()->stats();
  const prochlo::IngestStats ingest = group->frontend().ingest_stats();
  group.reset();
  {
    prochlo::ShufflerFrontend reopened(config);
    Must(reopened.Start(), "reopened frontend.Start");
  }
  std::map<std::string, uint64_t> read_digests;
  {
    prochlo::Spool spool(prochlo::SpoolConfig{config.spool_dir, /*fsync_on_seal=*/false});
    auto recovery = Must(spool.Open(), "Spool::Open");
    std::set<uint64_t> epochs;
    for (const auto& segment : recovery.segments) {
      epochs.insert(segment.epoch);
    }
    for (uint64_t epoch : epochs) {
      auto stream = spool.OpenEpochStream(epoch);
      while (auto record = stream->Next()) {
        read_digests[Digest(*record)]++;
      }
    }
  }
  const std::string error = CheckDigestMultiset(sent_digests, read_digests);
  result.Check(error.empty(), error);

  if (tracer.enabled()) {
    std::vector<double> all_lags;
    for (const auto& per_connection_lags : lags) {
      all_lags.insert(all_lags.end(), per_connection_lags.begin(), per_connection_lags.end());
    }
    const double records_per_fsync =
        static_cast<double>(wal.records_flushed) / static_cast<double>(std::max<uint64_t>(1, wal.fsyncs));
    result.Layer("gen.lag_ms_p99", 1e3 * Percentile(all_lags, 0.99), "ms");
    result.Layer("ack.p99_ms", Percentile(latencies, 0.99), "ms");
    result.Layer("connection.acked", static_cast<double>(book.acked), "count");
    result.Layer("connection.nacked", static_cast<double>(book.nacked), "count");
    result.Layer("connection.duplicates_suppressed",
                 static_cast<double>(book.duplicates_suppressed), "count");
    result.Layer("connection.response_write_failures",
                 static_cast<double>(book.response_write_failures), "count");
    result.Layer("wire.frames_ok", static_cast<double>(frames.frames_ok), "count");
    result.Layer("wire.frames_corrupt", static_cast<double>(frames.frames_corrupt), "count");
    result.Layer("pool.enqueued", static_cast<double>(pool_stats.enqueued), "count");
    result.Layer("pool.accepted", static_cast<double>(pool_stats.accepted), "count");
    result.Layer("pool.ring_full_waits", static_cast<double>(pool_stats.ring_full_waits), "count");
    result.Layer("wal.fsyncs", static_cast<double>(wal.fsyncs), "count");
    result.Layer("wal.records_per_fsync", records_per_fsync, "ratio");
    result.Layer("wal.bytes_per_report",
                 static_cast<double>(wal.bytes_flushed) /
                     static_cast<double>(std::max<uint64_t>(1, wal.records_flushed)),
                 "B");
    result.Layer("wal.checkpoints", static_cast<double>(wal.checkpoints), "count");
    result.Layer("wal.checkpointed_records", static_cast<double>(wal.checkpointed_records),
                 "count");
    result.Layer("wal.rolled_back_records", static_cast<double>(wal.rolled_back_records),
                 "count");
    const double closed_loop_batch =
        static_cast<double>(wal_after.records_flushed - wal_before.records_flushed) /
        static_cast<double>(std::max<uint64_t>(1, wal_after.fsyncs - wal_before.fsyncs));
    const size_t batch = std::max<size_t>(1, static_cast<size_t>(closed_loop_batch + 0.5));
    ProbeWalCommit(config, root + "/probe", pool, batch, tracer);
    ProbeWireFrame(pool, tracer);
    result.Layer("wal.commit_us", 1e6 * PerReportSeconds(tracer, "wal.commit"), "us");
    result.Layer("ingest.epochs_sealed", static_cast<double>(ingest.epochs_sealed), "count");
    result.Layer("ingest.size_cuts", static_cast<double>(ingest.size_cuts), "count");
    result.Layer("ingest.seal_failures", static_cast<double>(ingest.seal_failures), "count");
    result.Layer("encoder.seal_us_per_report",
                 1e6 * tracer.TotalSeconds("encoder.seal") /
                     static_cast<double>(tracer.TotalItems("encoder.seal")),
                 "us");
    // The closed loop's reports, each charged the re-driven stages' time per
    // report, against the closed loop's wall time.  Near 1 means the WAL
    // group commit (plus framing) accounts for the phase; the group commit
    // is serial, the framing overlaps it on other threads.
    result.Layer("trace.stage_sum_ratio",
                 static_cast<double>(phase2_acked) *
                     (PerReportSeconds(tracer, "wal.commit") +
                      PerReportSeconds(tracer, "wire.frame")) /
                     (phase2_end - t2),
                 "ratio");
    result.Layer("trace.reports_per_s", result.reports_per_s, "reports/s");
    result.Layer("trace.op_p50_ms", result.op_p50_ms, "ms");
  }
  return result;
}

}  // namespace esabench
