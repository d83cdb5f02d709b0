// Internal: the implementations behind kernels::gemm_s8.
//
// gemm_s8 runs the build's native tile: the AVX-512 VNNI tile where the
// compiler targets VNNI, else the portable vector-extension tile, which at
// m = 1 hands over to the scalar row loop (reference::gemm_s8) because it
// is slower there. All of them produce identical codes; only host time
// differs. The scope below pins one implementation on the calling thread so
// that the differential tests can check each tile at every shape and
// bench_micro can time them side by side.
// Only kernels_s8.cpp, kernels_s8_test and bench_micro include this header.
#pragma once

namespace stf::ml::kernels {

/// The implementations behind gemm_s8 (and so conv2d_forward_s8).
enum class GemmS8Impl {
  kNative,     ///< the build's choice by shape: VNNI tile, else portable
               ///< tile from m = 2 and the row loop at m = 1
  kPortable,   ///< the portable vector-extension tile at every shape
  kReference,  ///< reference::gemm_s8, the scalar row loop
};

/// True when this build's native tile is the AVX-512 VNNI one.
bool gemm_s8_native_is_vnni();

/// Runs the gemm_s8 calls made on the constructing thread with `impl` while
/// alive.
class GemmS8Scope {
 public:
  explicit GemmS8Scope(GemmS8Impl impl);
  ~GemmS8Scope();
  GemmS8Scope(const GemmS8Scope&) = delete;
  GemmS8Scope& operator=(const GemmS8Scope&) = delete;

 private:
  GemmS8Impl previous_;
};

}  // namespace stf::ml::kernels
