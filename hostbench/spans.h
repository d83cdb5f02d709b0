// Host-time spans recorded by the benchmark around its calls into the
// repository's modules.
//
// A span is one call: name ("<module>.<function>"), host start and end,
// the enclosing span, and the batch/round/pass id it belongs to. Spans are
// kept in memory and written out once, at the end of a run, as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it). A module's self
// time is the time its spans cover minus the time covered by their child
// spans; over a whole run the self times plus the time no span covers add
// up to the run's wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock readings.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start_s = 0;  ///< relative to the tracer's origin
  double end_s = 0;
  int parent = -1;     ///< index into spans(), -1 for a root
  std::int64_t id = -1;
};

/// Single-threaded span recorder. A tracer constructed disabled records
/// nothing, so an untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.
  int begin(std::string name, std::int64_t id = -1);
  void end(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Seconds since the tracer was constructed.
  [[nodiscard]] double now_s() const;

  /// Self seconds per module: a span named "a.b.c" belongs to module "a.b".
  [[nodiscard]] std::map<std::string, double> module_self_seconds() const;
  /// Seconds covered by root spans.
  [[nodiscard]] double covered_seconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string chrome_json(const std::string& workload) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t id = -1)
      : tracer_(tracer), index_(tracer.begin(std::move(name), id)) {}
  ~ScopedSpan() { tracer_.end(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Module of a span name: everything before the last '.'.
[[nodiscard]] std::string module_of(const std::string& span_name);

}  // namespace hostbench
