#include "bench_util.h"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "src/crypto/random.h"
#include "src/workload/vocab.h"

namespace esabench {

namespace {
size_t thread_override = 0;

std::chrono::steady_clock::time_point& ProcessStart() {
  static std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  return start;
}
}  // namespace

void SetBenchThreads(size_t threads) { thread_override = threads; }

size_t BenchThreads() {
  if (thread_override > 0) {
    return thread_override;
  }
  size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hardware, 1, 4);
}

void MarkProcessStart() { ProcessStart() = std::chrono::steady_clock::now(); }

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - ProcessStart())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double ThisThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ThreadCpuSeconds(std::thread& thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0) {
    return 0;
  }
  return ClockSeconds(clock);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::vector<std::string> VocabWords(prochlo::Rng& rng, uint64_t count) {
  const uint64_t vocabulary = kVocabulary;
  const prochlo::VocabWorkload vocab(prochlo::VocabConfig{.vocabulary_size = vocabulary});
  const prochlo::ZipfSampler& zipf = vocab.zipf();
  std::vector<uint64_t> counts(vocabulary);
  std::vector<std::pair<double, uint64_t>> remainders;
  uint64_t assigned = 0;
  for (uint64_t k = 0; k < vocabulary; ++k) {
    const double expected = static_cast<double>(count) * zipf.Probability(k);
    counts[k] = static_cast<uint64_t>(expected);
    assigned += counts[k];
    remainders.emplace_back(expected - static_cast<double>(counts[k]), k);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (uint64_t i = 0; assigned < count; ++i, ++assigned) {
    counts[remainders[i % vocabulary].second]++;
  }
  std::vector<uint64_t> labels(vocabulary);
  for (uint64_t k = 0; k < vocabulary; ++k) {
    labels[k] = k;
  }
  rng.Shuffle(labels);
  std::vector<std::string> words;
  words.reserve(count);
  for (uint64_t k = 0; k < vocabulary; ++k) {
    for (uint64_t i = 0; i < counts[k]; ++i) {
      words.push_back(prochlo::VocabWorkload::WordName(labels[k]));
    }
  }
  rng.Shuffle(words);
  return words;
}

std::map<std::string, uint64_t> CountWords(const std::vector<std::string>& words) {
  std::map<std::string, uint64_t> counts;
  for (const auto& word : words) {
    counts[word]++;
  }
  return counts;
}

prochlo::Result<std::vector<prochlo::Bytes>> SealWords(const prochlo::Encoder& encoder,
                                                       const std::vector<std::string>& words,
                                                       const std::string& seed,
                                                       size_t threads) {
  constexpr size_t kChunk = 256;
  const size_t chunks = (words.size() + kChunk - 1) / kChunk;
  threads = std::max<size_t>(1, std::min(threads, chunks));
  std::vector<prochlo::Result<std::vector<prochlo::Bytes>>> parts(
      chunks, prochlo::Error{"not sealed"});
  std::atomic<size_t> next_chunk{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t c = next_chunk++; c < chunks; c = next_chunk++) {
        const size_t begin = c * kChunk;
        const size_t end = std::min(words.size(), begin + kChunk);
        std::vector<std::pair<std::string, std::string>> inputs;
        inputs.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          inputs.emplace_back(words[i], words[i]);
        }
        prochlo::SecureRandom rng(prochlo::ToBytes(seed + "/seal/" + std::to_string(c)));
        parts[c] = encoder.BatchSealReports(inputs, rng);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  std::vector<prochlo::Bytes> sealed;
  sealed.reserve(words.size());
  for (auto& part : parts) {
    if (!part.ok()) {
      return part.error();
    }
    for (auto& report : part.value()) {
      sealed.push_back(std::move(report));
    }
  }
  return sealed;
}

prochlo::ShufflerStats ShufflerDelta(const prochlo::ShufflerStats& a,
                                     const prochlo::ShufflerStats& b) {
  prochlo::ShufflerStats d;
  d.received = a.received - b.received;
  d.malformed = a.malformed - b.malformed;
  d.dropped_noise = a.dropped_noise - b.dropped_noise;
  d.dropped_threshold = a.dropped_threshold - b.dropped_threshold;
  d.forwarded = a.forwarded - b.forwarded;
  d.crowds_seen = a.crowds_seen - b.crowds_seen;
  d.crowds_forwarded = a.crowds_forwarded - b.crowds_forwarded;
  return d;
}

void AddShufflerStats(prochlo::ShufflerStats& total, const prochlo::ShufflerStats& delta) {
  total.received += delta.received;
  total.malformed += delta.malformed;
  total.dropped_noise += delta.dropped_noise;
  total.dropped_threshold += delta.dropped_threshold;
  total.forwarded += delta.forwarded;
  total.crowds_seen += delta.crowds_seen;
  total.crowds_forwarded += delta.crowds_forwarded;
}

void ReportShufflerCounts(WorkloadResult& result, const std::string& prefix,
                          const prochlo::ShufflerStats& s) {
  result.Layer(prefix + ".received", static_cast<double>(s.received), "count");
  result.Layer(prefix + ".malformed", static_cast<double>(s.malformed), "count");
  result.Layer(prefix + ".dropped_noise", static_cast<double>(s.dropped_noise), "count");
  result.Layer(prefix + ".dropped_threshold", static_cast<double>(s.dropped_threshold), "count");
  result.Layer(prefix + ".forwarded", static_cast<double>(s.forwarded), "count");
  result.Layer(prefix + ".crowds_seen", static_cast<double>(s.crowds_seen), "count");
  result.Layer(prefix + ".crowds_forwarded", static_cast<double>(s.crowds_forwarded), "count");
}

void Must(const prochlo::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw BenchError(what + ": " + status.error().message);
  }
}

}  // namespace esabench
