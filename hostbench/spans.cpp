#include "spans.h"

#include <cstdio>

namespace hostbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now_s() const { return seconds_between(origin_, Clock::now()); }

int Tracer::begin(std::string name, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  open_.pop_back();  // spans close in LIFO order (ScopedSpan)
}

std::string module_of(const std::string& span_name) {
  const auto dot = span_name.rfind('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

std::map<std::string, double> Tracer::module_self_seconds() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[module_of(s.name)] += (s.end_s - s.start_s) - child_s[i];
  }
  return self;
}

double Tracer::covered_seconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

std::string Tracer::chrome_json(const std::string& workload) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"workload\": \"%s\", \"span\": %zu, "
                  "\"parent\": %d, \"id\": %lld}}%s\n",
                  s.name.c_str(), module_of(s.name).c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, workload.c_str(), i, s.parent,
                  static_cast<long long>(s.id),
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace hostbench
