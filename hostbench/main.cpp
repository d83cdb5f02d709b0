// hostbench: host wall-clock benchmark of the secureTF reproduction.
//
//   hostbench --workload <serve|serve_failover|train|cold_start>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// Prints one JSON object: the workload's metrics (name -> value, unit), the
// output checks, attempted/failed operation counts, the stated input sizes
// and the host facts the numbers depend on. With --trace 1 it also replays
// the workload through the lower modules and reports per-module self times,
// and writes the spans to --trace-out as Chrome trace-event JSON.
// hostbench/run.py builds this binary and wraps its output.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

namespace {

using namespace hostbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host seconds one begin/end pair costs the tracer.
double span_cost_s() {
  constexpr int kPairs = 20000;
  Tracer probe(true);
  const auto t0 = Clock::now();
  for (int i = 0; i < kPairs; ++i) probe.end(probe.begin("bench.probe", i));
  return seconds_between(t0, Clock::now()) / kPairs;
}

/// Adds the traced run's module self times; with unattributed_s they sum to
/// bench.traced_wall_s.
void add_span_metrics(Result& r, const Tracer& tracer, double wall_s) {
  for (const auto& [module, self_s] : tracer.module_self_seconds()) {
    r.metrics[module + ".span_self_s"] = Metric{self_s, "s"};
  }
  const double covered = tracer.covered_seconds();
  r.metrics["unattributed_s"] = Metric{wall_s - covered, "s"};
  r.metrics["bench.traced_wall_s"] = Metric{wall_s, "s"};
  const double spans = static_cast<double>(tracer.spans().size());
  const double cost = spans * span_cost_s();
  r.metrics["bench.spans"] = Metric{spans, "count"};
  r.metrics["bench.trace_overhead_pct"] =
      Metric{100.0 * cost / (wall_s - cost), "%"};
}

void print_result(const Options& o, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0);
  std::printf("\"attempted\": %lld, \"failed\": %lld, ",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  std::printf("\"facts\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"kernel_threads\": %u, \"hardware_concurrency\": %u}, ",
              STF_HOSTBENCH_COMPILER, STF_HOSTBENCH_BUILD_TYPE,
              kKernelThreads, std::thread::hardware_concurrency());
  std::printf("\"config\": {");
  bool first = true;
  for (const auto& [key, value] : r.config) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                json_escape(value).c_str());
    first = false;
  }
  std::printf("}, \"checks\": [");
  first = true;
  for (const Check& c : r.checks) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                first ? "" : ", ", c.name.c_str(), c.ok ? "true" : "false",
                json_escape(c.detail).c_str());
    first = false;
  }
  std::printf("], \"metrics\": {");
  first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload.empty()) return usage(argv[0]);

  try {
    Tracer tracer(o.trace);
    Result r = run_workload(o, tracer);
    r.metrics["peak_rss_mb"] = Metric{peak_rss_mb(), "MB"};
    if (o.trace) {
      add_span_metrics(r, tracer, tracer.now_s());
      if (!trace_out.empty()) {
        std::ofstream(trace_out) << tracer.chrome_json(o.workload);
      }
    }
    print_result(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
