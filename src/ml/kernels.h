// Compute substrate for the stf::ml ops: cache-blocked GEMM and im2col
// convolution on a shared thread pool.
//
// Everything here affects *wall time only*. Virtual-time cost accounting
// (the numbers Figures 5-8 are made of) is charged from op shapes by the
// callers and never observes how the math was scheduled. Two invariants
// make that safe:
//
//  1. Determinism: parallel work is partitioned into chunks that each own
//     a disjoint slice of the output, and no output element's arithmetic
//     depends on where the chunk boundaries fall (most kernels fix them
//     from the problem shape alone, see runtime::ThreadPool), so results
//     are bit-identical at any thread count.
//  2. Accumulation order: within one output element the k-dimension is
//     always reduced in ascending order, panel by panel, so small problems
//     (k <= KC) reproduce the naive triple-loop bit-for-bit.
//  3. The int8 kernels need neither argument for their integer part, which
//     is exact; their requantizing float steps must not be contracted into
//     FMAs (see the int8 section below).
#pragma once

#include <cstdint>

#include "runtime/thread_pool.h"

namespace stf::ml::kernels {

/// How a kernel call may use the machine. A default-constructed context is
/// serial; shared() is the process-wide pool sized to hardware concurrency.
struct KernelContext {
  runtime::ThreadPool* pool = nullptr;  ///< nullptr → run on the caller only
  unsigned threads = 1;                 ///< advertised parallelism of `pool`

  static const KernelContext& shared();
};

/// Runs fn(chunk_begin, chunk_end) over [begin, end) in grain-sized chunks,
/// on the context's pool when it has one. The chunk decomposition is the
/// same with or without a pool.
void parallel_for(const KernelContext& ctx, std::int64_t begin,
                  std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

// --- GEMM ----------------------------------------------------------------
// All matrices are row-major and dense. `c` is overwritten with the
// product (the first k-panel stores, later panels accumulate — prior
// contents of `c` never contribute, and single-panel problems touch each
// output element exactly once). m/k/n are always the logical GEMM dims:
// c is [m,n], the reduction runs over k. Problems of at most 72 rows with
// unit-stride B columns (gemm, gemm_tn: batch-1 and small-batch inference)
// read B in place instead of packing it; the results are bit-identical to
// the packed path's.

/// c[m,n] = a[m,k] · b[k,n]
void gemm(const KernelContext& ctx, std::int64_t m, std::int64_t k,
          std::int64_t n, const float* a, const float* b, float* c);

/// c[m,n] = a[m,k] · bᵀ, with b stored [n,k]
void gemm_nt(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c);

/// c[m,n] = aᵀ · b[k,n], with a stored [k,m]
void gemm_tn(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const float* a, const float* b, float* c);

// --- Convolution ---------------------------------------------------------
// NHWC input, HWIO filter, SAME padding; identical geometry to the
// historical naive kernels (output (h+s-1)/s, floor-div padding).

struct ConvShape {
  std::int64_t n, h, w, c, fh, fw, k, oh, ow, pad_h, pad_w, stride;

  [[nodiscard]] std::int64_t patch_size() const { return fh * fw * c; }
  [[nodiscard]] std::int64_t out_pixels() const { return n * oh * ow; }
};

ConvShape conv_shape(std::int64_t n, std::int64_t h, std::int64_t w,
                     std::int64_t c, std::int64_t fh, std::int64_t fw,
                     std::int64_t k, std::int64_t stride);

/// out[n*oh*ow, k] = im2col(input) · filter. The im2col scratch is
/// thread-local and reused across calls.
void conv2d_forward(const KernelContext& ctx, const ConvShape& s,
                    const float* input, const float* filter, float* out);

/// grad_input[n,h,w,c] += col2im(grad_output · filterᵀ); `grad_input`
/// must be zero-initialized (col2im is a scatter-add).
void conv2d_grad_input(const KernelContext& ctx, const ConvShape& s,
                       const float* filter, const float* grad_output,
                       float* grad_input);

/// grad_filter[fh*fw*c, k] = im2col(input)ᵀ · grad_output
void conv2d_grad_filter(const KernelContext& ctx, const ConvShape& s,
                        const float* input, const float* grad_output,
                        float* grad_filter);

// --- int8 execution path (docs/QUANTIZATION.md) --------------------------
// Symmetric per-tensor quantization: values are int8 codes q with one float
// scale per tensor (v ≈ q * scale), no zero point. The kernels below
// accumulate int8×int8 products in int32 — exact integer arithmetic — and
// fuse the requantization back to int8 codes into the store epilogue.
// Because integer accumulation is exact, batched == N singles holds
// bit-for-bit with no reduction-order caveat, and any tiling, chunking or
// thread count gives the same codes.
//
// gemm_s8 runs a register tile of up to 4 rows × 64 columns of int32
// accumulators over the whole k range, reading B (the weights) in place:
// each weight byte is loaded and widened once per 4-row tile of the batch.
// Where the compiler targets AVX-512 VNNI the tile feeds vpdpbusd four
// k-consecutive bytes per lane, transposed in registers from four B rows
// and biased to unsigned (b + 128); each row's accumulators start at
// -128·Σk a, so they end at the exact Σ a·b. Elsewhere a portable tile
// widens B to int32; it is slower than the scalar row loop for a single
// row, so there m = 1 runs the row loop. Up to 72 rows the parallel chunks
// are column panels, beyond that row blocks.
//
// The requantizing maps (the GEMM epilogue and the element-wise maps) are
// separately rounded float steps: they live in kernels_s8.cpp, which is
// compiled with -ffp-contract=off so that no a*b + c is fused into one
// rounding, and every vector form reproduces its scalar form below
// bit-for-bit, ties and clamping included.

/// Saturating round-half-away-from-zero requantization of one int32
/// accumulator: clamp(round(acc * multiplier), -127, 127), with
/// multiplier = (scale_a * scale_b) / scale_out.
std::int8_t requantize(std::int32_t acc, float multiplier);

/// Quantizes one float value to an int8 code: clamp(round(v / scale)).
std::int8_t quantize_one(float value, float scale);

/// c[m,n] = requantize(a[m,k] · b[k,n]). a/b/c are int8 codes, row-major
/// and dense; products accumulate exactly in int32.
void gemm_s8(const KernelContext& ctx, std::int64_t m, std::int64_t k,
             std::int64_t n, const std::int8_t* a, const std::int8_t* b,
             float multiplier, std::int8_t* c);

/// out[n*oh*ow, k] = requantize(im2col(input) · filter): int8 analogue of
/// conv2d_forward with identical im2col geometry (SAME padding fills the
/// code 0, which is exactly 0.0 under symmetric quantization).
void conv2d_forward_s8(const KernelContext& ctx, const ConvShape& s,
                       const std::int8_t* input, const std::int8_t* filter,
                       float multiplier, std::int8_t* out);

// Element-wise maps of the int8 interpreter, vectorized. Each equals its
// per-element scalar form exactly; chunking is shape-only.

/// out[i] = quantize_one(in[i], scale)
void quantize_s8(const KernelContext& ctx, const float* in, std::int64_t n,
                 float scale, std::int8_t* out);

/// out[i] = in[i] * scale
void dequantize_s8(const KernelContext& ctx, const std::int8_t* in,
                   std::int64_t n, float scale, float* out);

/// out[i] = quantize_one(v * scale_in, scale_out), v = relu ? max(in[i], 0)
/// : in[i]. `out` may equal `in`.
void rescale_s8(const KernelContext& ctx, const std::int8_t* in,
                std::int64_t n, float scale_in, float scale_out, bool relu,
                std::int8_t* out);

/// out[i] = quantize_one(a[i] * scale_a + b[i % bn] * scale_b, scale_out),
/// the two products rounded separately. b repeats every bn elements (a bias
/// row); throws std::invalid_argument when bn <= 0 and n > 0.
void add_s8(const KernelContext& ctx, const std::int8_t* a, std::int64_t n,
            float scale_a, const std::int8_t* b, std::int64_t bn,
            float scale_b, float scale_out, std::int8_t* out);

// --- Naive references ----------------------------------------------------
// The pre-blocking scalar kernels, kept as the oracle for the equivalence
// property tests and the before/after microbenchmarks. Not used on any hot
// path.
namespace reference {

void matmul(std::int64_t m, std::int64_t k, std::int64_t n, const float* a,
            const float* b, float* c);
void conv2d(const ConvShape& s, const float* input, const float* filter,
            float* out);
void conv2d_grad_input(const ConvShape& s, const float* filter,
                       const float* grad_output, float* grad_input);
void conv2d_grad_filter(const ConvShape& s, const float* input,
                        const float* grad_output, float* grad_filter);
/// The scalar int8 row loop: for each row of a, every row of b is widened
/// and multiplied into an int32 accumulator row, then requantized.
void gemm_s8(std::int64_t m, std::int64_t k, std::int64_t n,
             const std::int8_t* a, const std::int8_t* b, float multiplier,
             std::int8_t* c);

}  // namespace reference

}  // namespace stf::ml::kernels
