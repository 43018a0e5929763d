// In-memory spans and counters recorded by the benchmark around its calls
// into the program's layers (the event view), written out once at the end
// and reduced to per-layer metrics.  Disabled, every call is a no-op, so the
// untraced run pays nothing but a branch.
//
// A span's self time is its duration minus the durations of the spans that
// name it as parent.  Children normally nest inside the parent's interval;
// the re-driven stage spans of a drain or pipeline are recorded after the
// program call they decompose and still name it as parent, so the parent's
// self time is the part of the program call the re-driven stages do not
// account for.
#ifndef ESABENCH_SRC_TRACE_H_
#define ESABENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace esabench {

struct Span {
  int64_t id = 0;
  std::string name;
  double start = 0;  // seconds since process start
  double end = 0;
  int64_t parent = -1;  // -1 = root
  int64_t epoch = -1;   // epoch (or round) the span belongs to; -1 = none
  uint64_t items = 0;   // reports the span processed

  double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Returns the span id, or -1 when disabled.
  int64_t Begin(const std::string& name, int64_t parent = -1, int64_t epoch = -1);
  void End(int64_t id, uint64_t items = 0);
  // Records a span measured elsewhere (start/end in seconds since start).
  int64_t Record(const std::string& name, double start, double end, int64_t parent,
                 int64_t epoch, uint64_t items);

  void Count(const std::string& name, double value) {
    if (enabled_) {
      counters_[name] += value;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }

  // Duration of `id` minus the durations of its direct children.
  double SelfTime(int64_t id) const;
  // All spans named `name`.
  std::vector<const Span*> Named(const std::string& name) const;
  // Sum of durations / items of spans named `name`.
  double TotalSeconds(const std::string& name) const;
  uint64_t TotalItems(const std::string& name) const;

  // One JSON object per line: every span, then one line of counters.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// RAII span for the common nested case.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t parent = -1, int64_t epoch = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, epoch)) {}
  ~ScopedSpan() { tracer_.End(id_, items_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void set_items(uint64_t items) { items_ = items; }

 private:
  Tracer& tracer_;
  int64_t id_;
  uint64_t items_ = 0;
};

}  // namespace esabench

#endif  // ESABENCH_SRC_TRACE_H_
