#include "trace.h"

#include <cstdio>

#include "bench_util.h"

namespace esabench {

int64_t Tracer::Begin(const std::string& name, int64_t parent, int64_t epoch) {
  if (!enabled_) {
    return -1;
  }
  double now = Now();
  return Record(name, now, now, parent, epoch, 0);
}

void Tracer::End(int64_t id, uint64_t items) {
  if (!enabled_ || id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now();
  span.items = items;
}

int64_t Tracer::Record(const std::string& name, double start, double end, int64_t parent,
                       int64_t epoch, uint64_t items) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.epoch = epoch;
  span.items = items;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::SelfTime(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) {
    return 0;
  }
  double self = spans_[static_cast<size_t>(id)].duration();
  for (const Span& span : spans_) {
    if (span.parent == id) {
      self -= span.duration();
    }
  }
  return self;
}

std::vector<const Span*> Tracer::Named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(&span);
    }
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Span* span : Named(name)) {
    total += span->duration();
  }
  return total;
}

uint64_t Tracer::TotalItems(const std::string& name) const {
  uint64_t total = 0;
  for (const Span* span : Named(name)) {
    total += span->items;
  }
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"id\": %lld, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %lld, \"epoch\": %lld, \"items\": %llu}\n",
                 static_cast<long long>(span.id), span.name.c_str(), span.start, span.end,
                 static_cast<long long>(span.parent), static_cast<long long>(span.epoch),
                 static_cast<unsigned long long>(span.items));
  }
  std::fprintf(file, "{\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::fprintf(file, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::fprintf(file, "}}\n");
  return std::fclose(file) == 0;
}

}  // namespace esabench
