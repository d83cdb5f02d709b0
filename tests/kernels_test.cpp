// Tests for the blocked GEMM / im2col convolution substrate: equivalence
// against the naive reference kernels over randomized awkward shapes, NaN
// propagation (the old kernels' zero-skip broke it), and bit-identical
// results at every thread-pool size (the determinism contract that keeps
// "Lite matches the Session bit-for-bit" true on a parallel host).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "crypto/drbg.h"
#include "ml/kernels.h"
#include "ml/ops.h"
#include "runtime/thread_pool.h"

namespace stf::ml {
namespace {

using kernels::KernelContext;

float random_float(crypto::HmacDrbg& rng) {
  // Uniform in roughly [-1, 1), deterministic across runs.
  return static_cast<float>(rng.uniform(20001)) / 10000.0f - 1.0f;
}

Tensor random_tensor(crypto::HmacDrbg& rng, Shape shape) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) t.at(i) = random_float(rng);
  return t;
}

void expect_near(const Tensor& actual, const std::vector<float>& expected,
                 const char* what) {
  ASSERT_EQ(actual.size(), static_cast<std::int64_t>(expected.size()));
  for (std::int64_t i = 0; i < actual.size(); ++i) {
    const float e = expected[static_cast<std::size_t>(i)];
    const float tol = 1e-4f * std::max(1.0f, std::abs(e));
    EXPECT_NEAR(actual.at(i), e, tol) << what << " element " << i;
  }
}

TEST(BlockedGemm, MatchesNaiveOnRandomOddShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("gemm-equivalence"));
  // Odd sizes exercise every edge tile; k=300 spans two KC panels.
  const std::int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {13, 9, 31},
                                    {65, 17, 5}, {77, 300, 23}, {6, 256, 8},
                                    {73, 129, 65}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_tensor(rng, {m, k});
    const Tensor b = random_tensor(rng, {k, n});
    std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
    kernels::reference::matmul(m, k, n, a.data(), b.data(), want.data());
    const auto got = ops::matmul(a, b, KernelContext{});
    expect_near(got.output, want, "matmul");
    EXPECT_DOUBLE_EQ(got.flops, 2.0 * static_cast<double>(m) * k * n);
  }
}

TEST(BlockedGemm, TransposedVariantsMatchNaive) {
  crypto::HmacDrbg rng(crypto::to_bytes("gemm-transpose"));
  const std::int64_t m = 19, k = 45, n = 11;
  const Tensor a = random_tensor(rng, {m, k});
  const Tensor bt = random_tensor(rng, {n, k});  // logical B = btᵀ
  const Tensor at = random_tensor(rng, {k, m});  // logical A = atᵀ
  const Tensor b = random_tensor(rng, {k, n});

  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        want[static_cast<std::size_t>(i * n + j)] +=
            a.at(i * k + kk) * bt.at(j * k + kk);
      }
    }
  }
  Tensor got({m, n});
  kernels::gemm_nt(KernelContext{}, m, k, n, a.data(), bt.data(), got.data());
  expect_near(got, want, "gemm_nt");

  std::fill(want.begin(), want.end(), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        want[static_cast<std::size_t>(i * n + j)] +=
            at.at(kk * m + i) * b.at(kk * n + j);
      }
    }
  }
  Tensor got_tn({m, n});
  kernels::gemm_tn(KernelContext{}, m, k, n, at.data(), b.data(),
                   got_tn.data());
  expect_near(got_tn, want, "gemm_tn");
}

TEST(Im2colConv, ForwardMatchesNaiveOnRandomShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("conv-equivalence"));
  struct Case {
    std::int64_t n, h, w, c, fh, fw, k, stride;
  };
  const Case cases[] = {
      {1, 1, 1, 1, 1, 1, 1, 1}, {1, 7, 5, 3, 3, 3, 5, 1},
      {2, 9, 9, 1, 5, 5, 7, 2}, {3, 13, 11, 5, 3, 3, 9, 3},
      {1, 8, 8, 4, 1, 1, 6, 1}, {2, 11, 17, 3, 5, 3, 4, 2},
  };
  for (const auto& tc : cases) {
    const Tensor input = random_tensor(rng, {tc.n, tc.h, tc.w, tc.c});
    const Tensor filter = random_tensor(rng, {tc.fh, tc.fw, tc.c, tc.k});
    const auto s = kernels::conv_shape(tc.n, tc.h, tc.w, tc.c, tc.fh, tc.fw,
                                       tc.k, tc.stride);
    std::vector<float> want(
        static_cast<std::size_t>(s.out_pixels() * s.k), 0.0f);
    kernels::reference::conv2d(s, input.data(), filter.data(), want.data());
    const auto got = ops::conv2d(input, filter, tc.stride, KernelContext{});
    ASSERT_EQ(got.output.shape(), (Shape{tc.n, s.oh, s.ow, tc.k}));
    expect_near(got.output, want, "conv2d");
  }
}

TEST(Im2colConv, GradientsMatchNaiveOnRandomShapes) {
  crypto::HmacDrbg rng(crypto::to_bytes("conv-grad-equivalence"));
  struct Case {
    std::int64_t n, h, w, c, fh, fw, k, stride;
  };
  const Case cases[] = {
      {1, 7, 5, 3, 3, 3, 5, 1},
      {2, 9, 9, 2, 5, 5, 3, 2},
      {2, 13, 11, 5, 3, 3, 9, 3},
  };
  for (const auto& tc : cases) {
    const Tensor input = random_tensor(rng, {tc.n, tc.h, tc.w, tc.c});
    const Tensor filter = random_tensor(rng, {tc.fh, tc.fw, tc.c, tc.k});
    const auto s = kernels::conv_shape(tc.n, tc.h, tc.w, tc.c, tc.fh, tc.fw,
                                       tc.k, tc.stride);
    const Tensor grad_out = random_tensor(rng, {tc.n, s.oh, s.ow, tc.k});

    std::vector<float> want_gi(static_cast<std::size_t>(input.size()), 0.0f);
    kernels::reference::conv2d_grad_input(s, filter.data(), grad_out.data(),
                                          want_gi.data());
    const auto gi = ops::conv2d_grad_input(input, filter, grad_out, tc.stride,
                                           KernelContext{});
    expect_near(gi.output, want_gi, "conv2d_grad_input");

    std::vector<float> want_gf(static_cast<std::size_t>(filter.size()), 0.0f);
    kernels::reference::conv2d_grad_filter(s, input.data(), grad_out.data(),
                                           want_gf.data());
    const auto gf = ops::conv2d_grad_filter(input, filter, grad_out,
                                            tc.stride, KernelContext{});
    expect_near(gf.output, want_gf, "conv2d_grad_filter");
  }
}

// The old kernels skipped multiplication when one operand was exactly zero,
// so 0 * NaN never poisoned the output. IEEE says it must.
TEST(KernelNumerics, NanPropagatesThroughZeroOperands) {
  Tensor a({1, 2}, {0.0f, 1.0f});
  Tensor b({2, 2}, {std::nanf(""), 2.0f, 3.0f, 4.0f});
  const auto r = ops::matmul(a, b, KernelContext{});
  EXPECT_TRUE(std::isnan(r.output.at(0)));  // 0*NaN + 1*3
  EXPECT_FLOAT_EQ(r.output.at(1), 4.0f);    // 0*2 + 1*4

  // Conv: a zero input pixel against a NaN filter tap.
  Tensor input({1, 1, 1, 1}, {0.0f});
  Tensor filter({1, 1, 1, 1}, {std::nanf("")});
  const auto c = ops::conv2d(input, filter, 1, KernelContext{});
  EXPECT_TRUE(std::isnan(c.output.at(0)));
}

TEST(KernelDeterminism, BitIdenticalAcrossPoolSizes) {
  crypto::HmacDrbg rng(crypto::to_bytes("determinism"));
  const Tensor a = random_tensor(rng, {150, 300});
  const Tensor b = random_tensor(rng, {300, 70});
  const Tensor input = random_tensor(rng, {2, 17, 13, 5});
  const Tensor filter = random_tensor(rng, {3, 3, 5, 9});
  const auto s = kernels::conv_shape(2, 17, 13, 5, 3, 3, 9, 2);
  const Tensor grad_out = random_tensor(rng, {2, s.oh, s.ow, 9});
  // Batch-1 and batch-8 rows take the in-place (pack-free) GEMM path.
  const Tensor a1 = random_tensor(rng, {1, 300});
  const Tensor a8 = random_tensor(rng, {8, 300});

  const auto mm_serial = ops::matmul(a, b, KernelContext{});
  const auto mm1_serial = ops::matmul(a1, b, KernelContext{});
  const auto mm8_serial = ops::matmul(a8, b, KernelContext{});
  const auto conv_serial = ops::conv2d(input, filter, 2, KernelContext{});
  const auto gi_serial =
      ops::conv2d_grad_input(input, filter, grad_out, 2, KernelContext{});
  const auto gf_serial =
      ops::conv2d_grad_filter(input, filter, grad_out, 2, KernelContext{});

  for (const unsigned threads : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(threads);
    const KernelContext ctx{&pool, pool.thread_count()};
    EXPECT_EQ(ops::matmul(a, b, ctx).output, mm_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::matmul(a1, b, ctx).output, mm1_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::matmul(a8, b, ctx).output, mm8_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::conv2d(input, filter, 2, ctx).output, conv_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::conv2d_grad_input(input, filter, grad_out, 2, ctx).output,
              gi_serial.output)
        << threads << " threads";
    EXPECT_EQ(ops::conv2d_grad_filter(input, filter, grad_out, 2, ctx).output,
              gf_serial.output)
        << threads << " threads";
  }
}

// Small problems (k <= KC) must reproduce the naive reference *bit for
// bit*: the blocked kernel reduces k in the same ascending order, so the
// historical ml_test expectations keep holding exactly.
TEST(KernelDeterminism, SmallShapesAreBitExactAgainstNaive) {
  crypto::HmacDrbg rng(crypto::to_bytes("bit-exact"));
  const std::int64_t m = 33, k = 129, n = 18;
  const Tensor a = random_tensor(rng, {m, k});
  const Tensor b = random_tensor(rng, {k, n});
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  kernels::reference::matmul(m, k, n, a.data(), b.data(), want.data());
  const auto got = ops::matmul(a, b, KernelContext{});
  for (std::int64_t i = 0; i < got.output.size(); ++i) {
    EXPECT_EQ(got.output.at(i), want[static_cast<std::size_t>(i)])
        << "element " << i;
  }
}

// Index of the first element where got[0, count) and want differ bitwise
// (memcmp semantics: -0.0 != 0.0, NaN payloads compared), or -1.
std::int64_t first_bit_difference(const float* got, const float* want,
                                  std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(float)) != 0) return i;
  }
  return -1;
}

// GEMMs of at most one MC row block read B in place and issue micro-tiles
// of exactly their row count; a 73-row GEMM packs B and runs full 8-row
// tiles. Every output row must come out bit-identical either way, across
// the KC panel edge (k = 255/256/257, and 12 panels at k = 3072) and every
// NR column edge (n = 1, 10, 31, 32, 33, 1024). gemm_tn reads the same
// rows through a transposed, strided A.
TEST(KernelDeterminism, InPlaceRowsMatchPackedRowsBitForBit) {
  // Millions of operand elements: a Mersenne twister fills them far faster
  // than the DRBG (24 random bits mapped onto [-1, 1)).
  std::mt19937 gen(20261019);
  const auto random_tensor = [&gen](Shape shape) {
    Tensor t(std::move(shape));
    float* p = t.data();
    for (std::int64_t i = 0; i < t.size(); ++i) {
      p[i] = static_cast<float>(gen() >> 8) * 0x1p-23f - 1.0f;
    }
    return t;
  };
  constexpr std::int64_t kPackedRows = 73;
  const std::int64_t row_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 72};
  for (const std::int64_t k : {255, 256, 257, 3072}) {
    const Tensor a = random_tensor({kPackedRows, k});
    for (const std::int64_t n : {1, 10, 31, 32, 33, 1024}) {
      const Tensor b = random_tensor({k, n});
      std::vector<float> packed(static_cast<std::size_t>(kPackedRows * n));
      kernels::gemm(KernelContext{}, kPackedRows, k, n, a.data(), b.data(),
                    packed.data());
      for (const std::int64_t m : row_counts) {
        // Leading rows, then trailing rows (which include the packed
        // GEMM's one-row edge block).
        for (const std::int64_t r0 : {std::int64_t{0}, kPackedRows - m}) {
          const float* want = packed.data() + r0 * n;
          std::vector<float> rows(static_cast<std::size_t>(m * n), -7.0f);
          kernels::gemm(KernelContext{}, m, k, n, a.data() + r0 * k,
                        b.data(), rows.data());
          ASSERT_EQ(first_bit_difference(rows.data(), want, m * n), -1)
              << "gemm m=" << m << " rows from " << r0 << " k=" << k
              << " n=" << n;

          std::vector<float> at(static_cast<std::size_t>(k * m));
          for (std::int64_t kk = 0; kk < k; ++kk) {
            for (std::int64_t i = 0; i < m; ++i) {
              at[static_cast<std::size_t>(kk * m + i)] =
                  a.data()[(r0 + i) * k + kk];
            }
          }
          std::fill(rows.begin(), rows.end(), -7.0f);
          kernels::gemm_tn(KernelContext{}, m, k, n, at.data(), b.data(),
                           rows.data());
          ASSERT_EQ(first_bit_difference(rows.data(), want, m * n), -1)
              << "gemm_tn m=" << m << " rows from " << r0 << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace stf::ml
