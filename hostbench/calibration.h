// Host-speed calibration for the end-to-end metrics.
//
// The shared VMs this benchmark runs on change speed by tens of percent over
// seconds to minutes as other guests load the same cores, and branch-heavy
// code such as the portable bit-serial GHASH swings the most. Measured on a
// 4-vCPU Xeon VM: 256 KB AesGcm::seal took 30-58 ms over 400 samples
// (interquartile spread 23 % of the median); its ratio to a bit-serial
// GF(2^128) loop had a spread of 5 %, its ratio to a branch-free hash loop
// 24 %. So a branch-bound phase (a set-up, a train pass, the fs-shield seal
// and read) is timed between two samples of that loop and its host time is
// scaled to the reference speed by the loop's reference time over the mean
// of the two samples.
//
// Serving and the cold-start cycles track neither this loop nor, sampled
// only at the ends of a long phase, a large-buffer copy. Both are bound by
// memory and the page-fault path: a Lite invoke allocates fresh weight
// tensors and copies the weights into them, and how fast that runs depends
// on what the other guests do to the shared cache and memory. They track a
// copy of that shape (a fresh 42 MiB buffer filled from another) taken right
// next to each measured operation. Each warm classify call and each cold
// start follows one such sample and is scaled by the copy's reference time
// over the sample: over 6 runs of 400 warm classify calls, the run medians
// as measured spread 25 % (interquartile, share of the median), scaled 3 %.
// Each serve_trace pass sits between two samples and is scaled by the
// reference time over their mean: over 8 runs each, serve spread 14 % as
// measured and 5 % scaled, serve_failover 8 % and 8 %; the scaled medians
// of four such sets over 40 minutes stayed within 10 % of each other, while
// serve_failover's as-measured median once moved by half between sets of
// runs 15 minutes apart.
//
// Both loops are the benchmark's own code and never call into src/, so no
// change to the program can move them.
#pragma once

#include <cstddef>
#include <vector>

#include "spans.h"

namespace hostbench {

/// Milliseconds one calibration sample takes at the reference speed (about
/// the loop's median on the VM above).
inline constexpr double kReferenceCalibrationMs = 9.0;

/// Times the loop inside a "bench.calibrate" span; returns the median host
/// milliseconds of a few runs.
double calibration_ms(Tracer& tracer);

/// Milliseconds one memory calibration sample of kMemoryCalibrationBytes
/// takes at the reference speed. Any fixed value compares the same; this
/// one puts the scaled warm classify near the 15 ms it took as measured on
/// a quiet run of the VM above.
inline constexpr double kReferenceMemoryMs = 20.0;
inline constexpr std::size_t kMemoryCalibrationBytes = 42u << 20;

/// The memory calibration: a fresh buffer of kMemoryCalibrationBytes that
/// a source buffer is copied into, as Lite materializes its weights per
/// invoke.
class MemoryProbe {
 public:
  MemoryProbe();

  /// Times one copy inside a "bench.calibrate_memory" span; returns its
  /// milliseconds.
  double sample_ms(Tracer& tracer);

  /// Every sample so far, milliseconds.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<float> source_;
  std::vector<double> samples_;
};

}  // namespace hostbench
