#include "calibration.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace hostbench {
namespace {

using Block = std::array<std::uint8_t, 16>;

constexpr int kMultiplies = 4096;
/// Runs per sample; the sample is their median, which rejects the
/// millisecond-scale jitter a single run picks up.
constexpr int kRuns = 5;

/// x = x * h in GF(2^128), bit-serial and byte-wise like the portable GHASH:
/// data-dependent branches on every bit.
void gf128_mul(Block& x, const Block& h) {
  Block z{};
  Block v = h;
  for (int i = 0; i < 128; ++i) {
    if ((x[i / 8] >> (7 - i % 8)) & 1) {
      for (int j = 0; j < 16; ++j) z[j] ^= v[j];
    }
    const bool lsb = v[15] & 1;
    for (int j = 15; j > 0; --j) {
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  x = z;
}

double run_ms() {
  const Block h = {0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b,
                   0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34, 0x2b, 0x2e};
  Block x = h;
  const auto t0 = Clock::now();
  for (int i = 0; i < kMultiplies; ++i) {
    x[i % 16] ^= static_cast<std::uint8_t>(i);
    gf128_mul(x, h);
  }
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  // Keep the result observable so the loop is not optimised away.
  volatile std::uint8_t sink = x[0];
  (void)sink;
  return ms;
}

}  // namespace

double calibration_ms(Tracer& tracer) {
  ScopedSpan span(tracer, "bench.calibrate");
  std::array<double, kRuns> runs{};
  for (double& ms : runs) ms = run_ms();
  std::nth_element(runs.begin(), runs.begin() + kRuns / 2, runs.end());
  return runs[kRuns / 2];
}

MemoryProbe::MemoryProbe()
    : source_(kMemoryCalibrationBytes / sizeof(float), 1.5f) {}

double MemoryProbe::sample_ms(Tracer& tracer) {
  ScopedSpan span(tracer, "bench.calibrate_memory");
  const auto t0 = Clock::now();
  std::vector<float> copy(source_.size());
  std::copy(source_.begin(), source_.end(), copy.begin());
  const double ms = seconds_between(t0, Clock::now()) * 1e3;
  // Keep the copy observable so it is not optimised away.
  volatile float sink = copy[copy.size() / 2];
  (void)sink;
  samples_.push_back(ms);
  return ms;
}

}  // namespace hostbench
