#include "checks.h"

#include <cstdio>
#include <numeric>

namespace esabench {

Histogram ReferenceHistogram(const std::map<std::string, uint64_t>& word_counts,
                             uint64_t threshold) {
  Histogram reference;
  for (const auto& [word, count] : word_counts) {
    if (count >= threshold) {
      reference[word] = count;
    }
  }
  return reference;
}

std::string CheckDigestMultiset(const std::map<std::string, uint64_t>& sent,
                                const std::map<std::string, uint64_t>& read_back) {
  for (const auto& [digest, count] : sent) {
    auto it = read_back.find(digest);
    uint64_t got = it == read_back.end() ? 0 : it->second;
    if (got != count) {
      return "report multiset: a report sent " + std::to_string(count) +
             " times was read back " + std::to_string(got) + " times";
    }
  }
  for (const auto& [digest, count] : read_back) {
    if (sent.count(digest) == 0) {
      return "report multiset: read back " + std::to_string(count) +
             " copies of a report never sent";
    }
  }
  return "";
}

std::string CheckExactHistogram(const Histogram& got, const Histogram& reference) {
  for (const auto& [word, count] : reference) {
    auto it = got.find(word);
    uint64_t value = it == got.end() ? 0 : it->second;
    if (value != count) {
      return "histogram: '" + word + "' reads " + std::to_string(value) + ", reference " +
             std::to_string(count);
    }
  }
  for (const auto& [word, count] : got) {
    if (reference.count(word) == 0) {
      return "histogram: '" + word + "' (" + std::to_string(count) +
             ") is not in the reference";
    }
  }
  return "";
}

std::string CheckThresholdedHistogram(const Histogram& got,
                                      const std::map<std::string, uint64_t>& true_counts,
                                      uint64_t threshold) {
  for (const auto& [word, count] : got) {
    auto it = true_counts.find(word);
    if (it == true_counts.end()) {
      return "histogram: '" + word + "' was never drawn";
    }
    if (it->second < threshold) {
      return "histogram: '" + word + "' has true count " + std::to_string(it->second) +
             " < T but was reported";
    }
    if (count > it->second) {
      return "histogram: '" + word + "' reads " + std::to_string(count) +
             ", above its true count " + std::to_string(it->second);
    }
    if (count < threshold) {
      return "histogram: '" + word + "' reads " + std::to_string(count) + " < T";
    }
  }
  return "";
}

std::string CheckShufflerConservation(const prochlo::ShufflerStats& stats,
                                      uint64_t expected_received) {
  if (stats.malformed != 0) {
    return "shuffler: " + std::to_string(stats.malformed) + " malformed reports";
  }
  if (stats.received != expected_received) {
    return "shuffler: received " + std::to_string(stats.received) + ", expected " +
           std::to_string(expected_received);
  }
  uint64_t out =
      stats.forwarded + stats.dropped_threshold + stats.dropped_noise + stats.malformed;
  if (out != stats.received) {
    return "shuffler: received " + std::to_string(stats.received) +
           " != forwarded + dropped + malformed " + std::to_string(out);
  }
  return "";
}

std::string CheckClusterMerge(size_t groups_merged, size_t num_groups,
                              const std::vector<uint64_t>& missing_groups,
                              const std::vector<uint64_t>& acks_per_group, uint64_t sent) {
  if (!missing_groups.empty() || groups_merged != num_groups) {
    return "cluster merge: " + std::to_string(groups_merged) + " of " +
           std::to_string(num_groups) + " group partials merged";
  }
  uint64_t acked = std::accumulate(acks_per_group.begin(), acks_per_group.end(), uint64_t{0});
  if (acked != sent) {
    return "cluster merge: groups ACKed " + std::to_string(acked) + " of " +
           std::to_string(sent) + " reports sent";
  }
  return "";
}

int RunSelfTest() {
  int failures = 0;
  auto expect = [&failures](const char* name, const std::string& clean,
                            const std::string& planted) {
    bool ok = clean.empty() && !planted.empty();
    std::fprintf(stderr, "self-test %-28s clean=%s planted=%s\n", name,
                 clean.empty() ? "accepted" : "REJECTED", planted.empty() ? "ACCEPTED" : "rejected");
    if (!ok) {
      failures++;
    }
  };

  // A report dropped from the spool multiset.
  std::map<std::string, uint64_t> sent = {{"d1", 3}, {"d2", 1}, {"d3", 2}};
  std::map<std::string, uint64_t> dropped = sent;
  dropped["d1"]--;
  expect("report-dropped-from-spool", CheckDigestMultiset(sent, sent),
         CheckDigestMultiset(sent, dropped));

  // One histogram count off by one.
  std::map<std::string, uint64_t> counts = {{"w0", 40}, {"w1", 25}, {"w2", 19}, {"w3", 3}};
  Histogram reference = ReferenceHistogram(counts, 20);
  Histogram off_by_one = reference;
  off_by_one["w1"]++;
  expect("histogram-count-off-by-one", CheckExactHistogram(reference, reference),
         CheckExactHistogram(off_by_one, reference));

  // A below-threshold word injected into a randomized-threshold histogram.
  Histogram noisy = {{"w0", 31}, {"w1", 20}};
  Histogram injected = noisy;
  injected["w2"] = 19;
  expect("below-threshold-word-injected", CheckThresholdedHistogram(noisy, counts, 20),
         CheckThresholdedHistogram(injected, counts, 20));

  // A per-group partial omitted from a cluster merge: the merge reports one
  // group short, and the histogram built without it misses its counts.
  std::vector<uint64_t> acks = {500, 480, 510, 510};
  expect("group-partial-omitted", CheckClusterMerge(4, 4, {}, acks, 2000),
         CheckClusterMerge(3, 4, {3}, acks, 2000));
  Histogram without_group = reference;
  without_group["w0"] -= 11;
  expect("group-partial-histogram", CheckExactHistogram(reference, reference),
         CheckExactHistogram(without_group, reference));

  // Shuffler books that do not balance.
  prochlo::ShufflerStats stats;
  stats.received = 100;
  stats.forwarded = 60;
  stats.dropped_threshold = 40;
  prochlo::ShufflerStats unbalanced = stats;
  unbalanced.forwarded--;
  expect("shuffler-books-unbalanced", CheckShufflerConservation(stats, 100),
         CheckShufflerConservation(unbalanced, 100));
  return failures;
}

}  // namespace esabench
