// Differential tests for the int8 kernels: the register-tiled gemm_s8 (its
// native tile and the portable twin) against reference::gemm_s8, the scalar
// row loop, bit for bit over a grid of shapes, saturating codes and pool
// sizes; conv2d_forward_s8 against a direct int8 convolution; and every
// vectorized element-wise map against its scalar form, ties and clamping
// included.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "ml/kernels.h"
#include "ml/kernels_s8_internal.h"
#include "runtime/thread_pool.h"

namespace stf::ml {
namespace {

using kernels::GemmS8Impl;
using kernels::KernelContext;

std::vector<std::int8_t> random_codes(std::mt19937& gen, std::int64_t n) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int8_t>(gen() & 0xff);
  return v;
}

// The implementations under test: the native choice and the portable tile
// pinned at every shape (without VNNI the native choice runs the row loop at
// m = 1, so only the pinned twin covers the portable tile there).
std::vector<GemmS8Impl> tiled_impls() {
  return {GemmS8Impl::kNative, GemmS8Impl::kPortable};
}

const char* impl_name(GemmS8Impl impl) {
  switch (impl) {
    case GemmS8Impl::kNative:
      return kernels::gemm_s8_native_is_vnni() ? "native (vnni)"
                                               : "native (portable)";
    case GemmS8Impl::kPortable: return "portable";
    case GemmS8Impl::kReference: return "reference";
  }
  return "?";
}

std::vector<std::int8_t> gemm_with(GemmS8Impl impl, const KernelContext& ctx,
                                   std::int64_t m, std::int64_t k,
                                   std::int64_t n, const std::int8_t* a,
                                   const std::int8_t* b, float multiplier) {
  // Poisoned, so a tile that skips an output shows up.
  std::vector<std::int8_t> c(static_cast<std::size_t>(m * n), 99);
  kernels::GemmS8Scope scope(impl);
  kernels::gemm_s8(ctx, m, k, n, a, b, multiplier, c.data());
  return c;
}

std::vector<std::int8_t> reference_gemm(std::int64_t m, std::int64_t k,
                                        std::int64_t n, const std::int8_t* a,
                                        const std::int8_t* b,
                                        float multiplier) {
  std::vector<std::int8_t> c(static_cast<std::size_t>(m * n), 99);
  kernels::reference::gemm_s8(m, k, n, a, b, multiplier, c.data());
  return c;
}

// Index of the first differing code, or -1.
std::int64_t first_difference(const std::vector<std::int8_t>& got,
                              const std::vector<std::int8_t>& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) return static_cast<std::int64_t>(i);
  }
  return -1;
}

// Every row count a batch or an im2col can bring (tile edges at 4, the
// column/row chunking switch at 72), every k tail mod 4 around the old KC
// panel, and every column edge of the 64-wide tile.
TEST(GemmS8, MatchesReferenceBitForBitOverShapeGrid) {
  std::mt19937 gen(20261020);
  const std::int64_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 72, 73};
  const std::int64_t ks[] = {1, 2, 3, 255, 256, 257, 1024};
  const std::int64_t ns[] = {1, 10, 31, 32, 33, 64, 1024};
  for (const std::int64_t k : ks) {
    const auto a = random_codes(gen, 73 * k);
    for (const std::int64_t n : ns) {
      const auto b = random_codes(gen, k * n);
      // Typical |acc| is ~ 80² √k: the first multiplier keeps most codes in
      // range, the second saturates most of them.
      const float typical = 6400.0f * std::sqrt(static_cast<float>(k));
      for (const float multiplier : {40.0f / typical, 1000.0f / typical}) {
        for (const std::int64_t m : ms) {
          const auto want =
              reference_gemm(m, k, n, a.data(), b.data(), multiplier);
          for (const GemmS8Impl impl : tiled_impls()) {
            const auto got = gemm_with(impl, KernelContext{}, m, k, n,
                                       a.data(), b.data(), multiplier);
            ASSERT_EQ(first_difference(got, want), -1)
                << impl_name(impl) << " m=" << m << " k=" << k << " n=" << n
                << " multiplier=" << multiplier;
          }
        }
      }
    }
  }
}

// All operands at ±127 (and the -128 code) drive the accumulators to their
// extremes, k·127² in magnitude, and every output to a clamp.
TEST(GemmS8, SaturatingCodesMatchReference) {
  std::mt19937 gen(7);
  for (const std::int64_t k : {3, 257, 1024, 4099}) {
    for (const std::int8_t fill : {std::int8_t{127}, std::int8_t{-127},
                                   std::int8_t{-128}}) {
      const std::int64_t m = 5;
      const std::int64_t n = 70;
      std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), fill);
      std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
      for (auto& x : b) x = (gen() & 1) ? std::int8_t{127} : std::int8_t{-127};
      // Row 1 and column 3 all +127: the largest positive sum.
      for (std::int64_t kk = 0; kk < k; ++kk) {
        a[static_cast<std::size_t>(k + kk)] = 127;
        b[static_cast<std::size_t>(kk * n + 3)] = 127;
      }
      for (const float multiplier : {1.0f, 1e-3f, 1.0f / (127.0f * 127.0f)}) {
        const auto want =
            reference_gemm(m, k, n, a.data(), b.data(), multiplier);
        for (const GemmS8Impl impl : tiled_impls()) {
          EXPECT_EQ(first_difference(gemm_with(impl, KernelContext{}, m, k, n,
                                               a.data(), b.data(), multiplier),
                                     want),
                    -1)
              << impl_name(impl) << " k=" << k << " fill=" << int{fill}
              << " multiplier=" << multiplier;
        }
      }
    }
  }
}

// The chunk decomposition is shape-only and integer accumulation exact:
// codes are identical at every pool size, on both chunking paths (column
// panels up to 72 rows, row blocks beyond).
TEST(GemmS8, BitIdenticalAcrossPoolSizes) {
  std::mt19937 gen(99);
  const std::int64_t shapes[][3] = {
      {1, 1024, 1024}, {4, 1024, 1024}, {8, 1024, 1030}, {72, 300, 200},
      {73, 257, 33},   {500, 9, 16},    {300, 72, 64}};
  for (const auto& [m, k, n] : shapes) {
    const auto a = random_codes(gen, m * k);
    const auto b = random_codes(gen, k * n);
    const float multiplier = 1.0f / (3000.0f * std::sqrt(static_cast<float>(k)));
    const auto want = reference_gemm(m, k, n, a.data(), b.data(), multiplier);
    for (const unsigned threads : {1u, 2u, 4u}) {
      runtime::ThreadPool pool(threads);
      const KernelContext ctx{&pool, pool.thread_count()};
      for (const GemmS8Impl impl : tiled_impls()) {
        EXPECT_EQ(first_difference(gemm_with(impl, ctx, m, k, n, a.data(),
                                             b.data(), multiplier),
                                   want),
                  -1)
            << impl_name(impl) << " threads=" << threads << " m=" << m
            << " k=" << k << " n=" << n;
      }
    }
  }
}

// Direct NHWC×HWIO int8 convolution with SAME padding, one int32 sum per
// output element.
std::vector<std::int8_t> direct_conv_s8(const kernels::ConvShape& s,
                                        const std::int8_t* input,
                                        const std::int8_t* filter,
                                        float multiplier) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(s.out_pixels() * s.k));
  for (std::int64_t b = 0; b < s.n; ++b) {
    for (std::int64_t oy = 0; oy < s.oh; ++oy) {
      for (std::int64_t ox = 0; ox < s.ow; ++ox) {
        for (std::int64_t ko = 0; ko < s.k; ++ko) {
          std::int32_t acc = 0;
          for (std::int64_t fy = 0; fy < s.fh; ++fy) {
            const std::int64_t iy = oy * s.stride + fy - s.pad_h;
            if (iy < 0 || iy >= s.h) continue;
            for (std::int64_t fx = 0; fx < s.fw; ++fx) {
              const std::int64_t ix = ox * s.stride + fx - s.pad_w;
              if (ix < 0 || ix >= s.w) continue;
              for (std::int64_t ci = 0; ci < s.c; ++ci) {
                acc += std::int32_t{input[((b * s.h + iy) * s.w + ix) * s.c +
                                          ci]} *
                       filter[((fy * s.fw + fx) * s.c + ci) * s.k + ko];
              }
            }
          }
          out[static_cast<std::size_t>(((b * s.oh + oy) * s.ow + ox) * s.k +
                                       ko)] =
              kernels::requantize(acc, multiplier);
        }
      }
    }
  }
  return out;
}

// The mnist_convnet layers (3×3 conv 28×28×1→8, then 14×14×8→16), at batch
// 1 and 4, plus a strided odd shape.
TEST(ConvS8, MatchesDirectConvolutionOnConvnetShapes) {
  std::mt19937 gen(11);
  struct Case {
    std::int64_t n, h, w, c, f, k, stride;
  };
  const Case cases[] = {{1, 28, 28, 1, 3, 8, 1},  {4, 28, 28, 1, 3, 8, 1},
                        {1, 14, 14, 8, 3, 16, 1}, {4, 14, 14, 8, 3, 16, 1},
                        {2, 17, 13, 5, 3, 9, 2}};
  for (const Case& cs : cases) {
    const auto s =
        kernels::conv_shape(cs.n, cs.h, cs.w, cs.c, cs.f, cs.f, cs.k,
                            cs.stride);
    const auto input = random_codes(gen, cs.n * cs.h * cs.w * cs.c);
    const auto filter = random_codes(gen, cs.f * cs.f * cs.c * cs.k);
    const float multiplier =
        1.0f / (2000.0f * std::sqrt(static_cast<float>(s.patch_size())));
    const auto want =
        direct_conv_s8(s, input.data(), filter.data(), multiplier);
    for (const unsigned threads : {1u, 4u}) {
      runtime::ThreadPool pool(threads);
      const KernelContext ctx{&pool, pool.thread_count()};
      for (const GemmS8Impl impl : tiled_impls()) {
        kernels::GemmS8Scope scope(impl);
        std::vector<std::int8_t> got(want.size(), 99);
        kernels::conv2d_forward_s8(ctx, s, input.data(), filter.data(),
                                   multiplier, got.data());
        EXPECT_EQ(first_difference(got, want), -1)
            << impl_name(impl) << " threads=" << threads << " n=" << cs.n
            << " h=" << cs.h << " c=" << cs.c << " k=" << cs.k;
      }
    }
  }
}

// --- Element-wise maps -----------------------------------------------------

// Floats whose quotient by `scale` lands exactly on .5 ties, on the clamp
// edges, on signed zeros and far outside the code range.
std::vector<float> edge_floats(float scale) {
  std::vector<float> v;
  for (int i = -260; i <= 260; ++i) {
    v.push_back(static_cast<float>(i) * 0.5f * scale);   // every .5 tie
    v.push_back(static_cast<float>(i) * 0.25f * scale);  // .25 / .75
  }
  for (const float x : {0.0f, -0.0f, 1e-30f, -1e-30f, 1e9f, -1e9f,
                        std::numeric_limits<float>::denorm_min(),
                        126.49999f, 126.5f, 127.49999f, 127.5f, -127.5f,
                        -128.5f}) {
    v.push_back(x);
    v.push_back(x * scale);
  }
  std::mt19937 gen(5);
  std::uniform_real_distribution<float> dist(-200.0f, 200.0f);
  for (int i = 0; i < 5000; ++i) v.push_back(dist(gen) * scale);
  return v;
}

std::vector<std::int8_t> all_codes() {
  std::vector<std::int8_t> v;
  for (int c = -128; c <= 127; ++c) v.push_back(static_cast<std::int8_t>(c));
  return v;
}

// Scales that make products and quotients land on exact ties (0.5, 2),
// clamp (4), stay exact (1), or round off an irrational ratio.
const float kScales[] = {1.0f, 0.5f, 2.0f, 4.0f, 0.0078125f, 0.013f,
                         0.3333333f};

TEST(Int8Maps, QuantizeMatchesScalarForm) {
  for (const float scale : kScales) {
    const auto in = edge_floats(scale);
    const auto n = static_cast<std::int64_t>(in.size());
    std::vector<std::int8_t> got(in.size(), 99);
    kernels::quantize_s8(KernelContext{}, in.data(), n, scale, got.data());
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[static_cast<std::size_t>(i)],
                kernels::quantize_one(in[static_cast<std::size_t>(i)], scale))
          << "value " << in[static_cast<std::size_t>(i)] << " scale " << scale;
    }
  }
  // Spot-check the rounding rule itself: half away from zero, clamp at 127.
  const float ties[] = {2.5f, -2.5f, 0.5f, -0.5f, 126.5f, 127.5f, -300.0f};
  std::int8_t q[7];
  kernels::quantize_s8(KernelContext{}, ties, 7, 1.0f, q);
  const std::int8_t expect[] = {3, -3, 1, -1, 127, 127, -127};
  for (int i = 0; i < 7; ++i) EXPECT_EQ(q[i], expect[i]) << ties[i];
}

TEST(Int8Maps, DequantizeMatchesScalarForm) {
  const auto codes = all_codes();
  for (const float scale : kScales) {
    std::vector<float> got(codes.size());
    kernels::dequantize_s8(KernelContext{}, codes.data(), 256, scale,
                           got.data());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      const float want = static_cast<float>(codes[i]) * scale;
      ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(float)), 0)
          << int{codes[i]} << " scale " << scale;
    }
  }
}

TEST(Int8Maps, RescaleAndReluMatchScalarForm) {
  const auto codes = all_codes();
  for (const float sa : kScales) {
    for (const float so : kScales) {
      for (const bool relu : {false, true}) {
        std::vector<std::int8_t> got(codes.size(), 99);
        kernels::rescale_s8(KernelContext{}, codes.data(), 256, sa, so, relu,
                            got.data());
        // In place, as MaxPool2D uses it.
        std::vector<std::int8_t> in_place = codes;
        kernels::rescale_s8(KernelContext{}, in_place.data(), 256, sa, so,
                            relu, in_place.data());
        for (std::size_t i = 0; i < codes.size(); ++i) {
          const std::int8_t v =
              relu && codes[i] < 0 ? std::int8_t{0} : codes[i];
          const std::int8_t want =
              kernels::quantize_one(static_cast<float>(v) * sa, so);
          ASSERT_EQ(got[i], want) << int{codes[i]} << " sa " << sa << " so "
                                  << so << " relu " << relu;
          ASSERT_EQ(in_place[i], want);
        }
      }
    }
  }
}

// a·sa + b·sb with each product rounded on its own, whatever contraction
// the compiler of this file applies: the form add_s8 must reproduce.
float separately_rounded_sum(std::int8_t a, float sa, std::int8_t b,
                             float sb) {
  const volatile float pa = static_cast<float>(a) * sa;
  const volatile float pb = static_cast<float>(b) * sb;
  return pa + pb;
}

// Every pair of codes, with the second operand as a full tensor and as a
// repeating bias row of several widths (dividing the length or not, and
// longer than it), at scales that produce ties and clamps, and at scales
// where a fused multiply-add would round differently.
TEST(Int8Maps, AddMatchesScalarFormWithBroadcast) {
  const auto codes = all_codes();
  std::vector<std::int8_t> a;
  std::vector<std::int8_t> b;
  for (const std::int8_t x : codes) {
    for (const std::int8_t y : codes) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  const auto n = static_cast<std::int64_t>(a.size());
  const float triples[][3] = {{1.0f, 1.0f, 1.0f},   {0.5f, 0.5f, 1.0f},
                              {0.5f, 0.25f, 0.5f},  {2.0f, 1.0f, 1.0f},
                              {0.013f, 0.02f, 0.031f},
                              {0.3333333f, 0.1f, 0.0078125f},
                              {0.03f, 0.02f, 0.02f}, {0.7f, 0.1f, 1.0f}};
  for (const auto& [sa, sb, so] : triples) {
    for (const std::int64_t bn : {n, std::int64_t{256}, std::int64_t{1000},
                                  std::int64_t{1}, n + 17}) {
      std::vector<std::int8_t> bias = b;
      bias.resize(static_cast<std::size_t>(bn), 5);
      std::vector<std::int8_t> got(a.size(), 99);
      kernels::add_s8(KernelContext{}, a.data(), n, sa, bias.data(), bn, sb,
                      so, got.data());
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int8_t want = kernels::quantize_one(
            separately_rounded_sum(a[static_cast<std::size_t>(i)], sa,
                                   bias[static_cast<std::size_t>(i % bn)], sb),
            so);
        ASSERT_EQ(got[static_cast<std::size_t>(i)], want)
            << "i=" << i << " bn=" << bn << " scales " << sa << "," << sb
            << "," << so;
      }
    }
  }
  // The last two scale triples are ones where contraction shows: a fused
  // a·sa + b·sb changes the code of some pairs.
  int fused_differs = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = a[static_cast<std::size_t>(i)];
    const auto y = b[static_cast<std::size_t>(i)];
    const float fused = std::fma(static_cast<float>(x), 0.03f,
                                 static_cast<float>(y) * 0.02f);
    fused_differs += kernels::quantize_one(fused, 0.02f) !=
                     kernels::quantize_one(
                         separately_rounded_sum(x, 0.03f, y, 0.02f), 0.02f);
  }
  EXPECT_GT(fused_differs, 0);
  std::int8_t out = 0;
  EXPECT_THROW(kernels::add_s8(KernelContext{}, a.data(), 1, 1.0f, b.data(),
                               0, 1.0f, 1.0f, &out),
               std::invalid_argument);
}

// Chunk edges of the maps (and of the bias runs inside a chunk) fall where
// the pool splits them; the codes may not depend on it.
TEST(Int8Maps, BitIdenticalAcrossPoolSizes) {
  std::mt19937 gen(17);
  const std::int64_t n = 3 * 16384 + 5;
  const std::int64_t bn = 1000;
  const auto a = random_codes(gen, n);
  const auto b = random_codes(gen, bn);
  std::vector<std::int8_t> add_serial(static_cast<std::size_t>(n));
  std::vector<std::int8_t> relu_serial(static_cast<std::size_t>(n));
  kernels::add_s8(KernelContext{}, a.data(), n, 0.02f, b.data(), bn, 0.03f,
                  0.05f, add_serial.data());
  kernels::rescale_s8(KernelContext{}, a.data(), n, 0.02f, 0.01f, true,
                      relu_serial.data());
  for (const unsigned threads : {2u, 4u}) {
    runtime::ThreadPool pool(threads);
    const KernelContext ctx{&pool, pool.thread_count()};
    std::vector<std::int8_t> got(static_cast<std::size_t>(n));
    kernels::add_s8(ctx, a.data(), n, 0.02f, b.data(), bn, 0.03f, 0.05f,
                    got.data());
    EXPECT_EQ(got, add_serial) << threads;
    kernels::rescale_s8(ctx, a.data(), n, 0.02f, 0.01f, true, got.data());
    EXPECT_EQ(got, relu_serial) << threads;
  }
}

}  // namespace
}  // namespace stf::ml
