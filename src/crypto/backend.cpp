// CPUID dispatch and the x86 hardware kernels (see crypto/backend.h).
//
// Every kernel carries its own target attribute, so this file compiles
// without -march flags and the code only runs after detected() has seen the
// instructions on the host.
#include "crypto/backend.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define STF_CRYPTO_X86 1
#endif

namespace stf::crypto::backend {
namespace {

thread_local bool portable_only = false;

Features detect() {
  Features f;
#ifdef STF_CRYPTO_X86
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return f;
  const bool sse41 = (c & bit_SSSE3) != 0 && (c & bit_SSE4_1) != 0;
  f.aes_clmul = sse41 && (c & bit_AES) != 0 && (c & bit_PCLMUL) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    f.sha = sse41 && (b & bit_SHA) != 0;
  }
#endif
  return f;
}

}  // namespace

const Features& detected() {
  static const Features features = detect();
  return features;
}

Features active() { return portable_only ? Features{} : detected(); }

PortableScope::PortableScope() : previous_(portable_only) {
  portable_only = true;
}

PortableScope::~PortableScope() { portable_only = previous_; }

#ifdef STF_CRYPTO_X86

#define STF_TARGET_AES __attribute__((target("aes,pclmul,sse4.1")))
#define STF_TARGET_SHA __attribute__((target("sha,sse4.1")))

namespace {

STF_TARGET_AES inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

STF_TARGET_AES inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// --- AES-NI ---------------------------------------------------------------

template <int Rounds>
STF_TARGET_AES inline __m128i encrypt(const __m128i k[Rounds + 1],
                                      __m128i b) {
  b = _mm_xor_si128(b, k[0]);
  for (int r = 1; r < Rounds; ++r) b = _mm_aesenc_si128(b, k[r]);
  return _mm_aesenclast_si128(b, k[Rounds]);
}

template <int Rounds>
STF_TARGET_AES void encrypt_block(const std::uint8_t* round_keys,
                                  std::uint8_t block[16]) {
  __m128i k[Rounds + 1];
  for (int r = 0; r <= Rounds; ++r) k[r] = load(round_keys + 16 * r);
  store(block, encrypt<Rounds>(k, load(block)));
}

// Keeps the counter block with its last 4 bytes reversed, so the big-endian
// counter is lane 3 of a little-endian vector: _mm_add_epi32 then steps it
// modulo 2^32 and never carries into the nonce, exactly like the portable
// byte loop.
template <int Rounds>
STF_TARGET_AES void ctr_xor(const std::uint8_t* round_keys,
                            const std::uint8_t iv[16], std::uint8_t* data,
                            std::size_t len) {
  constexpr int kLanes = 8;
  __m128i k[Rounds + 1];
  for (int r = 0; r <= Rounds; ++r) k[r] = load(round_keys + 16 * r);
  const __m128i swap_ctr =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12);
  const __m128i one = _mm_set_epi32(1, 0, 0, 0);
  __m128i ctr = _mm_shuffle_epi8(load(iv), swap_ctr);

  for (; len >= 16 * kLanes; data += 16 * kLanes, len -= 16 * kLanes) {
    __m128i b[kLanes];
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(_mm_shuffle_epi8(ctr, swap_ctr), k[0]);
      ctr = _mm_add_epi32(ctr, one);
    }
    for (int r = 1; r < Rounds; ++r) {
      for (int i = 0; i < kLanes; ++i) b[i] = _mm_aesenc_si128(b[i], k[r]);
    }
    for (int i = 0; i < kLanes; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], k[Rounds]);
      store(data + 16 * i, _mm_xor_si128(load(data + 16 * i), b[i]));
    }
  }
  for (; len > 0; data += 16, len -= std::min<std::size_t>(len, 16)) {
    const __m128i ks = encrypt<Rounds>(k, _mm_shuffle_epi8(ctr, swap_ctr));
    ctr = _mm_add_epi32(ctr, one);
    if (len >= 16) {
      store(data, _mm_xor_si128(load(data), ks));
    } else {
      std::uint8_t tail[16];
      store(tail, ks);
      for (std::size_t i = 0; i < len; ++i) data[i] ^= tail[i];
    }
  }
}

// --- PCLMULQDQ GHASH ------------------------------------------------------
//
// Blocks and H powers are byte-reversed, which turns GCM's reflected bit
// order into a carry-less product that is off by one bit position; reduce()
// shifts the 256-bit product left by one and folds it modulo
// x^128 + x^7 + x^2 + x + 1 (Gueron & Kounavis, Intel CLMUL white paper).
// Products are accumulated unreduced, so four blocks share one reduction.

STF_TARGET_AES inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
}

struct Product {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

STF_TARGET_AES inline void clmul_add(Product& p, __m128i a, __m128i b) {
  p.lo = _mm_xor_si128(p.lo, _mm_clmulepi64_si128(a, b, 0x00));
  p.hi = _mm_xor_si128(p.hi, _mm_clmulepi64_si128(a, b, 0x11));
  p.mid = _mm_xor_si128(p.mid, _mm_clmulepi64_si128(a, b, 0x01));
  p.mid = _mm_xor_si128(p.mid, _mm_clmulepi64_si128(a, b, 0x10));
}

STF_TARGET_AES inline __m128i reduce(const Product& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));

  // hi:lo <<= 1.
  __m128i lo_carry = _mm_srli_epi32(lo, 31);
  __m128i hi_carry = _mm_srli_epi32(hi, 31);
  const __m128i cross = _mm_srli_si128(lo_carry, 12);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, cross);

  // Fold lo into hi.
  __m128i t = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i t_high = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  __m128i u = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_srli_epi32(lo, 7));
  u = _mm_xor_si128(u, t_high);
  lo = _mm_xor_si128(lo, u);
  return _mm_xor_si128(hi, lo);
}

STF_TARGET_AES inline __m128i gfmul(__m128i a, __m128i b) {
  Product p;
  clmul_add(p, a, b);
  return reduce(p);
}

// --- SHA-NI ---------------------------------------------------------------

STF_TARGET_SHA inline __m128i load_sha(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

}  // namespace

namespace hw {

STF_TARGET_AES void aes_encrypt_block(const std::uint8_t* round_keys,
                                      int rounds, std::uint8_t block[16]) {
  if (rounds == 10) {
    encrypt_block<10>(round_keys, block);
  } else {
    encrypt_block<14>(round_keys, block);
  }
}

STF_TARGET_AES void aes_ctr_xor(const std::uint8_t* round_keys, int rounds,
                                const std::uint8_t iv[16], std::uint8_t* data,
                                std::size_t len) {
  if (rounds == 10) {
    ctr_xor<10>(round_keys, iv, data, len);
  } else {
    ctr_xor<14>(round_keys, iv, data, len);
  }
}

STF_TARGET_AES void ghash_key(const std::uint8_t h[16],
                              std::uint8_t key[kGhashKeySize]) {
  const __m128i h1 = byte_reverse(load(h));
  const __m128i h2 = gfmul(h1, h1);
  const __m128i h3 = gfmul(h2, h1);
  const __m128i h4 = gfmul(h3, h1);
  store(key, h1);
  store(key + 16, h2);
  store(key + 32, h3);
  store(key + 48, h4);
}

STF_TARGET_AES void ghash(const std::uint8_t key[kGhashKeySize],
                          std::uint8_t y[16], const std::uint8_t* data,
                          std::size_t len) {
  const __m128i h1 = load(key);
  const __m128i h2 = load(key + 16);
  const __m128i h3 = load(key + 32);
  const __m128i h4 = load(key + 48);
  __m128i acc = byte_reverse(load(y));

  // Y' = (Y + X1)·H^4 + X2·H^3 + X3·H^2 + X4·H, one reduction per 4 blocks.
  for (; len >= 64; data += 64, len -= 64) {
    Product p;
    clmul_add(p, _mm_xor_si128(acc, byte_reverse(load(data))), h4);
    clmul_add(p, byte_reverse(load(data + 16)), h3);
    clmul_add(p, byte_reverse(load(data + 32)), h2);
    clmul_add(p, byte_reverse(load(data + 48)), h1);
    acc = reduce(p);
  }
  for (; len >= 16; data += 16, len -= 16) {
    acc = gfmul(_mm_xor_si128(acc, byte_reverse(load(data))), h1);
  }
  if (len > 0) {
    std::uint8_t tail[16] = {};
    std::memcpy(tail, data, len);
    acc = gfmul(_mm_xor_si128(acc, byte_reverse(load(tail))), h1);
  }
  store(y, byte_reverse(acc));
}

// Two rounds per _mm_sha256rnds2_epu32 on the state split as ABEF/CDGH; the
// message schedule runs four words ahead with sha256msg1/msg2 (Intel SHA
// extensions reference flow).
STF_TARGET_SHA void sha256_compress(std::uint32_t state[8],
                                    const std::uint8_t* blocks,
                                    std::size_t nblocks) {
  const __m128i be_words =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_shuffle_epi32(load_sha(state), 0xb1);      // CDAB
  __m128i cdgh = _mm_shuffle_epi32(load_sha(state + 4), 0x1b);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                 // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);                      // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(load_sha(blocks + 16 * i), be_words);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i msg = _mm_add_epi32(
          w[i & 3], load_sha(kSha256RoundConstants.data() + 4 * i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (i >= 3 && i < 15) {
        // W[i+1] = msg2(msg1(W[i-3], W[i-2]) + (W[i-1]:W[i]) >> 32, W[i]).
        const __m128i t = _mm_alignr_epi8(w[i & 3], w[(i - 1) & 3], 4);
        w[(i + 1) & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(w[(i + 1) & 3], t), w[i & 3]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (i >= 1 && i < 13) {
        w[(i - 1) & 3] = _mm_sha256msg1_epu32(w[(i - 1) & 3], w[i & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);    // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);   // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xf0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

}  // namespace hw

#else  // !STF_CRYPTO_X86: detected() reports no features, so none of these
       // is reachable.

namespace hw {
namespace {
[[noreturn]] void unavailable() {
  throw std::logic_error("crypto: no hardware backend on this architecture");
}
}  // namespace

void aes_encrypt_block(const std::uint8_t*, int, std::uint8_t*) {
  unavailable();
}
void aes_ctr_xor(const std::uint8_t*, int, const std::uint8_t*,
                 std::uint8_t*, std::size_t) {
  unavailable();
}
void ghash_key(const std::uint8_t*, std::uint8_t*) { unavailable(); }
void ghash(const std::uint8_t*, std::uint8_t*, const std::uint8_t*,
           std::size_t) {
  unavailable();
}
void sha256_compress(std::uint32_t*, const std::uint8_t*, std::size_t) {
  unavailable();
}

}  // namespace hw

#endif

}  // namespace stf::crypto::backend
