// The int8 half of the kernel substrate (docs/QUANTIZATION.md): the
// register-tiled int8 GEMM, the requantizing element-wise maps, and the
// scalar forms they are held to.
//
// Every requantization here is a chain of separately rounded float steps
// (convert, multiply, add or divide, truncate) that must round exactly like
// the scalar forms requantize() and quantize_one(). A contracted a*b + c
// rounds once instead of twice and changes codes, so this file is compiled
// with -ffp-contract=off (src/ml/CMakeLists.txt) while kernels.cpp, whose
// float GEMM is held to a reference compiled under the same contraction, is
// not.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "ml/kernels.h"
#include "ml/kernels_s8_internal.h"
#include "obs/metrics.h"
#include "obs/names.h"

#if defined(__AVX512VNNI__) && defined(__AVX512BW__)
#include <immintrin.h>
#define STF_GEMM_S8_VNNI 1
#endif

namespace stf::ml::kernels {
namespace {

// Registers lazily on first use so float-only runs keep their registry
// exports (and committed BENCH baselines) byte-identical.
obs::Counter& int8_gemm_calls_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      obs::names::kQuantGemmCalls, "int8 blocked GEMM core invocations");
  return c;
}

// Register tile: up to kTileRows rows of A against one kTileCols-wide column
// panel of B, all accumulators held in registers across the whole k loop.
constexpr std::int64_t kTileRows = 4;
constexpr std::int64_t kTileCols = 64;
// Up to this many rows the parallel chunks split the column panels (every
// chunk runs all rows, so B is streamed once); beyond it they split rows.
constexpr std::int64_t kSmallM = 72;
// Elements per chunk of an element-wise map.
constexpr std::int64_t kMapGrain = 1 << 14;

thread_local GemmS8Impl scoped_impl = GemmS8Impl::kNative;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// clamp(round half away from zero(scaled), -127, 127): the scalar form of
// the tail every map shares (requantize() and quantize_one()).
inline std::int8_t to_code(float scaled) {
  const int q =
      static_cast<int>(scaled >= 0 ? scaled + 0.5f : scaled - 0.5f);
  return static_cast<std::int8_t>(std::max(-127, std::min(127, q)));
}

// to_code without the branch, which the vectorizer cannot if-convert (it
// would evaluate both sides of a float conditional, and either may trap).
// Adding 0.5 with the sign of `scaled` is the same map for every input: a
// -0.0 adds -0.5 instead of +0.5 and both truncate to 0, a NaN stays NaN.
inline std::int8_t to_code_branchless(float scaled) {
  const int q = static_cast<int>(scaled + std::copysign(0.5f, scaled));
  return static_cast<std::int8_t>(std::max(-127, std::min(127, q)));
}

// One register tile: c[rows, cols] = requantize(a[rows, k] · b[k, cols]).
// a rows sit `lda` apart, b rows `ldb` apart, c rows `ldc` apart; `cols` is
// at most kTileCols, and FULL tiles have exactly kTileCols. `bias` holds one
// accumulator start value per row (the VNNI tile's compensation term) or is
// nullptr for tiles that need none.
using TileFn = void (*)(const std::int8_t* a, std::int64_t lda, std::int64_t k,
                        const std::int8_t* b, std::int64_t ldb,
                        std::int64_t cols, const std::int32_t* bias,
                        float multiplier, std::int8_t* c, std::int64_t ldc);

struct TileSet {
  TileFn full[kTileRows];  ///< by row count - 1
  TileFn edge[kTileRows];
  bool biased;  ///< tiles read `bias`
};

// --- Portable tile ------------------------------------------------------
// GCC/Clang vector extensions, lowered to whatever SIMD the target has. Per
// k step one 64-byte row of B is loaded as 16 int32 words and widened with
// shifts alone: vector j holds byte j of every word, sign-extended, i.e.
// columns 4l + j in lane l. Each widened vector is multiplied into every
// row's accumulators, exactly in int32; the epilogue packs byte j of each
// output word back from vector j, restoring the column order.
static_assert(std::endian::native == std::endian::little,
              "the portable int8 tile addresses bytes within words");
typedef std::int32_t i32x16 __attribute__((vector_size(64)));
typedef std::int32_t i32x16_unaligned
    __attribute__((vector_size(64), aligned(1), may_alias));
typedef float f32x16 __attribute__((vector_size(64)));

// to_code(acc * multiplier) on 16 lanes: the same expression, lane by lane,
// so every step rounds as in requantize().
inline i32x16 requantize_lanes(i32x16 acc, float multiplier) {
  const f32x16 scaled = __builtin_convertvector(acc, f32x16) * multiplier;
  const f32x16 rounded = scaled >= 0 ? scaled + 0.5f : scaled - 0.5f;
  const i32x16 q = __builtin_convertvector(rounded, i32x16);
  const i32x16 lo = i32x16{} - 127;
  const i32x16 hi = i32x16{} + 127;
  return q < lo ? lo : (q > hi ? hi : q);
}

template <int ROWS, bool FULL>
void portable_tile(const std::int8_t* a, std::int64_t lda, std::int64_t k,
                   const std::int8_t* b, std::int64_t ldb, std::int64_t cols,
                   const std::int32_t* /*bias*/, float multiplier,
                   std::int8_t* c, std::int64_t ldc) {
  i32x16 acc[ROWS][4] = {};
  std::int8_t edge_row[kTileCols] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* row = b + kk * ldb;
    if (!FULL) {
      // Edge tiles copy their columns into a zero-padded row first, so no
      // byte past the matrix is read.
      std::memcpy(edge_row, row, static_cast<std::size_t>(cols));
      row = edge_row;
    }
    const i32x16 words = *reinterpret_cast<const i32x16_unaligned*>(row);
    i32x16 w[4];
    for (int j = 0; j < 4; ++j) w[j] = (words << (24 - 8 * j)) >> 24;
    for (int r = 0; r < ROWS; ++r) {
      const std::int32_t av = a[r * lda + kk];
      for (int j = 0; j < 4; ++j) acc[r][j] += av * w[j];
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    i32x16 words = {};
    for (int j = 0; j < 4; ++j) {
      words |= (requantize_lanes(acc[r][j], multiplier) & 0xff) << (8 * j);
    }
    std::memcpy(c + r * ldc, &words,
                static_cast<std::size_t>(FULL ? kTileCols : cols));
  }
}

constexpr TileSet kPortableTiles{
    {portable_tile<1, true>, portable_tile<2, true>, portable_tile<3, true>,
     portable_tile<4, true>},
    {portable_tile<1, false>, portable_tile<2, false>,
     portable_tile<3, false>, portable_tile<4, false>},
    false};

#ifdef STF_GEMM_S8_VNNI
// --- AVX-512 VNNI tile ----------------------------------------------------
// vpdpbusd adds four u8×s8 products per int32 lane, so B has to reach it
// with four k-consecutive bytes of one column in each dword. Four B rows of
// a 64-column panel are loaded in place, biased to unsigned (b ^ 0x80 =
// b + 128) and transposed in registers with two rounds of in-lane unpacks;
// afterwards dword d of 128-bit lane l of q[v] holds column 16l + 4v + d.
// A supplies the signed operand: a broadcast dword a[r][kk..kk+3].
//
//   Σk (b + 128)·a = Σk a·b + 128·Σk a
//
// so each row's accumulators start at -128·Σk a (its `bias`) and end at the
// exact Σ a·b. All int32 arithmetic wraps, and the result equals the
// reference whenever the reference's own sum fits in an int32.
//
// The epilogue packs the four requantized vectors with in-lane signed packs
// (int32 → int16 → int8), which undo the transposition's column order, so
// the 64 codes of a row leave in one store.
inline void transpose_quad(__m512i r0, __m512i r1, __m512i r2, __m512i r3,
                           __m512i q[4]) {
  const __m512i t0 = _mm512_unpacklo_epi8(r0, r1);
  const __m512i t1 = _mm512_unpackhi_epi8(r0, r1);
  const __m512i t2 = _mm512_unpacklo_epi8(r2, r3);
  const __m512i t3 = _mm512_unpackhi_epi8(r2, r3);
  q[0] = _mm512_unpacklo_epi16(t0, t2);
  q[1] = _mm512_unpackhi_epi16(t0, t2);
  q[2] = _mm512_unpacklo_epi16(t1, t3);
  q[3] = _mm512_unpackhi_epi16(t1, t3);
}

template <int ROWS, bool FULL>
void vnni_tile(const std::int8_t* a, std::int64_t lda, std::int64_t k,
               const std::int8_t* b, std::int64_t ldb, std::int64_t cols,
               const std::int32_t* bias, float multiplier, std::int8_t* c,
               std::int64_t ldc) {
  const __mmask64 mask =
      FULL ? ~__mmask64{0} : (~__mmask64{0} >> (kTileCols - cols));
  const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
  const auto load_row = [&](const std::int8_t* p) {
    // Edge tiles load only their columns: masked-off bytes are never read.
    const __m512i v = FULL ? _mm512_loadu_si512(p)
                           : _mm512_maskz_loadu_epi8(mask, p);
    return _mm512_xor_si512(v, flip);
  };
  __m512i acc[ROWS][4];
  for (int r = 0; r < ROWS; ++r) {
    for (int v = 0; v < 4; ++v) acc[r][v] = _mm512_set1_epi32(bias[r]);
  }
  __m512i q[4];
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const std::int8_t* bk = b + kk * ldb;
    transpose_quad(load_row(bk), load_row(bk + ldb), load_row(bk + 2 * ldb),
                   load_row(bk + 3 * ldb), q);
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      std::memcpy(&a4, a + r * lda + kk, 4);
      const __m512i av = _mm512_set1_epi32(a4);
      for (int v = 0; v < 4; ++v) {
        acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], q[v], av);
      }
    }
  }
  if (kk < k) {
    // 1-3 trailing k: B rows past k are never loaded and the matching A
    // bytes are zero, so the padding lanes add nothing.
    const std::int64_t rem = k - kk;
    const std::int8_t* bk = b + kk * ldb;
    const __m512i none = _mm512_setzero_si512();
    transpose_quad(load_row(bk), rem > 1 ? load_row(bk + ldb) : none,
                   rem > 2 ? load_row(bk + 2 * ldb) : none, none, q);
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4 = 0;
      std::memcpy(&a4, a + r * lda + kk, static_cast<std::size_t>(rem));
      const __m512i av = _mm512_set1_epi32(a4);
      for (int v = 0; v < 4; ++v) {
        acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], q[v], av);
      }
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    __m512i code[4];
    for (int v = 0; v < 4; ++v) {
      code[v] = reinterpret_cast<__m512i>(requantize_lanes(
          reinterpret_cast<i32x16>(acc[r][v]), multiplier));
    }
    const __m512i bytes =
        _mm512_packs_epi16(_mm512_packs_epi32(code[0], code[1]),
                           _mm512_packs_epi32(code[2], code[3]));
    if (FULL) {
      _mm512_storeu_si512(c + r * ldc, bytes);
    } else {
      _mm512_mask_storeu_epi8(c + r * ldc, mask, bytes);
    }
  }
}

constexpr TileSet kVnniTiles{
    {vnni_tile<1, true>, vnni_tile<2, true>, vnni_tile<3, true>,
     vnni_tile<4, true>},
    {vnni_tile<1, false>, vnni_tile<2, false>, vnni_tile<3, false>,
     vnni_tile<4, false>},
    true};
constexpr const TileSet& kNativeTiles = kVnniTiles;
#else
constexpr const TileSet& kNativeTiles = kPortableTiles;
#endif

// -128 · Σk a[k] in wrapping int32 arithmetic: the start value of a VNNI
// row's accumulators.
std::int32_t row_bias(const std::int8_t* a, std::int64_t k) {
  std::uint32_t sum = 0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    sum += static_cast<std::uint32_t>(static_cast<std::int32_t>(a[kk]));
  }
  return static_cast<std::int32_t>(0u - (sum << 7));
}

// Shape-only decomposition: with at most kSmallM rows the chunks are runs of
// column panels and every chunk runs all rows, so each weight byte is read
// once per row tile of the batch; taller problems (im2col convolutions) are
// chunked by kSmallM-row blocks that sweep every panel. Chunks own disjoint
// outputs and integer accumulation is exact, so any chunking — and any
// thread count — gives the same codes.
void gemm_s8_tiled(const KernelContext& ctx, std::int64_t m, std::int64_t k,
                   std::int64_t n, const std::int8_t* a, const std::int8_t* b,
                   float multiplier, std::int8_t* c, const TileSet& tiles) {
  thread_local std::vector<std::int32_t> biases;
  if (tiles.biased) {
    biases.resize(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      biases[static_cast<std::size_t>(i)] = row_bias(a + i * k, k);
    }
  }
  const std::int32_t* bias = tiles.biased ? biases.data() : nullptr;
  const std::int64_t panels = ceil_div(n, kTileCols);
  const auto run = [&](std::int64_t i0, std::int64_t i1, std::int64_t p0,
                       std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t jc = p * kTileCols;
      const std::int64_t cols = std::min(kTileCols, n - jc);
      const TileFn* by_rows = cols == kTileCols ? tiles.full : tiles.edge;
      for (std::int64_t i = i0; i < i1; i += kTileRows) {
        const std::int64_t rows = std::min(kTileRows, i1 - i);
        by_rows[rows - 1](a + i * k, k, k, b + jc, n, cols,
                          bias != nullptr ? bias + i : nullptr, multiplier,
                          c + i * n + jc, n);
      }
    }
  };
  if (m <= kSmallM) {
    // One chunk per thread, but at least ~1M multiply-adds per chunk.
    const std::int64_t grain = std::max(
        ceil_div(panels, std::max<std::int64_t>(1, ctx.threads)),
        (std::int64_t{1} << 20) / (m * k * kTileCols));
    parallel_for(ctx, 0, panels, grain, [&](std::int64_t p0, std::int64_t p1) {
      run(0, m, p0, p1);
    });
    return;
  }
  parallel_for(ctx, 0, ceil_div(m, kSmallM), 1,
               [&](std::int64_t rb0, std::int64_t rb1) {
                 run(rb0 * kSmallM, std::min(m, rb1 * kSmallM), 0, panels);
               });
}

// The element-wise map bodies: plain loops over restrict-qualified
// pointers and by-value scales, which the compiler vectorizes (an int8 store
// may alias anything, so nothing here is read through a captured reference).
// rescale_run is also called in place (in == out), which element-by-element
// loops tolerate.
void quantize_run(const float* __restrict in, std::int64_t n, float scale,
                  std::int8_t* __restrict out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = to_code_branchless(in[i] / scale);
  }
}

void dequantize_run(const std::int8_t* __restrict in, std::int64_t n,
                    float scale, float* __restrict out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(in[i]) * scale;
  }
}

template <bool RELU>
void rescale_run(const std::int8_t* in, std::int64_t n, float scale_in,
                 float scale_out, std::int8_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int8_t v = RELU && in[i] < 0 ? std::int8_t{0} : in[i];
    out[i] = to_code_branchless(static_cast<float>(v) * scale_in / scale_out);
  }
}

void add_run(const std::int8_t* __restrict a, float scale_a,
             const std::int8_t* __restrict b, float scale_b, std::int64_t n,
             float scale_out, std::int8_t* __restrict out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = to_code_branchless((static_cast<float>(a[i]) * scale_a +
                                 static_cast<float>(b[i]) * scale_b) /
                                scale_out);
  }
}

}  // namespace

bool gemm_s8_native_is_vnni() { return &kNativeTiles != &kPortableTiles; }

GemmS8Scope::GemmS8Scope(GemmS8Impl impl) : previous_(scoped_impl) {
  scoped_impl = impl;
}

GemmS8Scope::~GemmS8Scope() { scoped_impl = previous_; }

std::int8_t requantize(std::int32_t acc, float multiplier) {
  return to_code(static_cast<float>(acc) * multiplier);
}

std::int8_t quantize_one(float value, float scale) {
  return to_code(value / scale);
}

void gemm_s8(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const std::int8_t* a, const std::int8_t* b,
             float multiplier, std::int8_t* c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  int8_gemm_calls_counter().add();
  switch (scoped_impl) {
    case GemmS8Impl::kNative:
      // The portable tile loses to the row loop on a single row; the VNNI
      // tile does not.
      if (m == 1 && !gemm_s8_native_is_vnni()) {
        reference::gemm_s8(m, k, n, a, b, multiplier, c);
        return;
      }
      gemm_s8_tiled(ctx, m, k, n, a, b, multiplier, c, kNativeTiles);
      return;
    case GemmS8Impl::kPortable:
      gemm_s8_tiled(ctx, m, k, n, a, b, multiplier, c, kPortableTiles);
      return;
    case GemmS8Impl::kReference:
      reference::gemm_s8(m, k, n, a, b, multiplier, c);
      return;
  }
}

void quantize_s8(const KernelContext& ctx, const float* in, std::int64_t n,
                 float scale, std::int8_t* out) {
  parallel_for(ctx, 0, n, kMapGrain, [=](std::int64_t i0, std::int64_t i1) {
    quantize_run(in + i0, i1 - i0, scale, out + i0);
  });
}

void dequantize_s8(const KernelContext& ctx, const std::int8_t* in,
                   std::int64_t n, float scale, float* out) {
  parallel_for(ctx, 0, n, kMapGrain, [=](std::int64_t i0, std::int64_t i1) {
    dequantize_run(in + i0, i1 - i0, scale, out + i0);
  });
}

void rescale_s8(const KernelContext& ctx, const std::int8_t* in,
                std::int64_t n, float scale_in, float scale_out, bool relu,
                std::int8_t* out) {
  parallel_for(ctx, 0, n, kMapGrain, [=](std::int64_t i0, std::int64_t i1) {
    if (relu) {
      rescale_run<true>(in + i0, i1 - i0, scale_in, scale_out, out + i0);
    } else {
      rescale_run<false>(in + i0, i1 - i0, scale_in, scale_out, out + i0);
    }
  });
}

void add_s8(const KernelContext& ctx, const std::int8_t* a, std::int64_t n,
            float scale_a, const std::int8_t* b, std::int64_t bn,
            float scale_b, float scale_out, std::int8_t* out) {
  if (n <= 0) return;
  if (bn <= 0) throw std::invalid_argument("add_s8: empty second operand");
  parallel_for(ctx, 0, n, kMapGrain, [=](std::int64_t i0, std::int64_t i1) {
    // b repeats every bn elements: walk it in runs instead of taking i % bn
    // per element.
    for (std::int64_t i = i0; i < i1;) {
      const std::int64_t j0 = i % bn;
      const std::int64_t len = std::min(i1 - i, bn - j0);
      add_run(a + i, scale_a, b + j0, scale_b, len, scale_out, out + i);
      i += len;
    }
  });
}

namespace reference {

void gemm_s8(std::int64_t m, std::int64_t k, std::int64_t n,
             const std::int8_t* a, const std::int8_t* b, float multiplier,
             std::int8_t* c) {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0);
    const std::int8_t* arow = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = arow[kk];
      const std::int8_t* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) {
        acc[static_cast<std::size_t>(j)] += av * brow[j];
      }
    }
    std::int8_t* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      crow[j] = requantize(acc[static_cast<std::size_t>(j)], multiplier);
    }
  }
}

}  // namespace reference

}  // namespace stf::ml::kernels
