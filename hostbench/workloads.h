// The benchmark's four workloads, each driven through the repository's
// public entry points and timed from outside with steady_clock.
//
//   serve           2-node Hardware-mode fleet, float 8 MB model on a 6 MB
//                   EPC, open-loop Poisson trace via ServingFleet::serve_trace
//   serve_failover  the same fleet with a calibrated int8 model, bursty
//                   arrivals, a seeded crash window, retries and hedging
//   train           3-worker Hardware-mode TrainingCluster, network shield on
//   cold_start      42 MB model sealed and read back through the fs shield,
//                   then repeated cold starts (deserialize, launch, batch-1
//                   classify) on an attested SecureTfContext
//
// A run repeats the workload's pass (fresh set-up + timed phase) until the
// requested seconds are used. With tracing on it additionally replays the
// recorded batches (serve), classify calls (cold_start) or each round (train)
// through the lower modules' entry points to split the host time per module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace hostbench {

/// Threads the ML kernels of the serving nodes and the cold-start service
/// run on: serial. serve_trace took the same host time with 1 and 4 kernel
/// threads, and one thread keeps the per-module differences and the speed
/// calibration (calibration.h) meaningful. TrainingCluster's sessions use the
/// process-wide pool, which the run reports as config.train_kernel_threads.
inline constexpr unsigned kKernelThreads = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< failed or refused operations, checks excluded
  /// Stated input sizes and settings of the run (strings for the report).
  std::map<std::string, std::string> config;
};

/// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Result run_workload(const Options& options, Tracer& tracer);

}  // namespace hostbench
