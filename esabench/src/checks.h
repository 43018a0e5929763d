// The benchmark's output checks.  Each compares the program's output with a
// reference the benchmark computed apart from the program (from the
// plaintext inputs it generated), or tests a property the method must have.
// Every check returns an empty string on success and a description of the
// first discrepancy otherwise.  `esabench --self-test` plants one fault per
// check and requires each to be rejected.
#ifndef ESABENCH_SRC_CHECKS_H_
#define ESABENCH_SRC_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/shuffler.h"

namespace esabench {

using Histogram = std::map<std::string, uint64_t>;

// Value counts of `words` with every crowd (crowd = word) of fewer than
// `threshold` reports removed: the kNaive thresholded histogram.
Histogram ReferenceHistogram(const std::map<std::string, uint64_t>& word_counts,
                             uint64_t threshold);

// Two multisets of report digests (digest -> multiplicity) are equal.
std::string CheckDigestMultiset(const std::map<std::string, uint64_t>& sent,
                                const std::map<std::string, uint64_t>& read_back);

// A histogram equals the reference exactly.
std::string CheckExactHistogram(const Histogram& got, const Histogram& reference);

// Randomized-threshold output: every reported word was drawn, no count
// exceeds the word's true count or falls below `threshold`, and so no word
// whose true count is below `threshold` appears.
std::string CheckThresholdedHistogram(const Histogram& got,
                                      const std::map<std::string, uint64_t>& true_counts,
                                      uint64_t threshold);

// received == forwarded + dropped_threshold + dropped_noise + malformed,
// with malformed == 0 and received == expected_received.
std::string CheckShufflerConservation(const prochlo::ShufflerStats& stats,
                                      uint64_t expected_received);

// A cluster merge used a partial from every group, and the per-group ACK
// totals sum to the number of reports sent.
std::string CheckClusterMerge(size_t groups_merged, size_t num_groups,
                              const std::vector<uint64_t>& missing_groups,
                              const std::vector<uint64_t>& acks_per_group, uint64_t sent);

// Plants one fault per check; returns the number of checks that failed to
// reject their fault (or rejected clean input), printing each to stderr.
int RunSelfTest();

}  // namespace esabench

#endif  // ESABENCH_SRC_CHECKS_H_
