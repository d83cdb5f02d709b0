// Internal: the two crypto backends behind Aes, AesGcm and Sha256.
//
// The public classes dispatch every bulk operation to one of two sets of
// kernels with identical inputs and outputs:
//
//   portable  plain C++ (table S-box AES, bit-serial GHASH, scalar SHA-256);
//             runs everywhere and is the oracle the hardware kernels are
//             tested against;
//   hw        x86 AES-NI (8 CTR blocks in flight), PCLMULQDQ GHASH with
//             4-block aggregation, and SHA-NI. Each kernel is compiled with
//             a per-function target attribute, so the library itself needs
//             no -march flag.
//
// The backend is chosen once per process from CPUID. Outputs are
// byte-identical, so the choice never changes a result, only host time.
// Only src/crypto, the crypto tests and bench_micro include this header.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace stf::crypto::backend {

/// Which hardware kernels this process may use.
struct Features {
  bool aes_clmul = false;  // AES-NI + PCLMULQDQ + SSE4.1: AES and GHASH
  bool sha = false;        // SHA-NI + SSE4.1: SHA-256 compression
};

/// CPUID of this host, read once per process.
const Features& detected();

/// What the dispatching API uses on the calling thread: detected(), or no
/// hardware at all while a PortableScope is alive on the thread.
Features active();

/// Forces the portable kernels on this thread while alive. This is the seam
/// that runs the public API on the portable backend for the known-answer
/// tests and for bench_micro's *Portable twins.
class PortableScope {
 public:
  PortableScope();
  ~PortableScope();
  PortableScope(const PortableScope&) = delete;
  PortableScope& operator=(const PortableScope&) = delete;

 private:
  bool previous_;
};

// Round keys are stored in byte order: round r is bytes [16r, 16r + 16),
// XORed onto the state as they stand. `rounds` is 10 (AES-128) or 14
// (AES-256). The CTR counter is the big-endian word in the last 4 bytes of
// the block and wraps modulo 2^32 without touching the other 12 bytes.
// GHASH absorbs `len` bytes into the accumulator `y`, zero-padding a final
// partial block.

/// Size of the largest expanded key (AES-256: 15 round keys).
inline constexpr std::size_t kMaxRoundKeyBytes = 240;

/// FIPS 197 key expansion into byte-order round keys. Returns the number of
/// rounds; `key_len` must be 16 or 32, else std::invalid_argument.
int aes_expand_key(const std::uint8_t* key, std::size_t key_len,
                   std::uint8_t round_keys[kMaxRoundKeyBytes]);

/// FIPS 180-4 round constants K0..K63.
inline constexpr std::array<std::uint32_t, 64> kSha256RoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace portable {

void aes_encrypt_block(const std::uint8_t* round_keys, int rounds,
                       std::uint8_t block[16]);
void aes_ctr_xor(const std::uint8_t* round_keys, int rounds,
                 const std::uint8_t iv[16], std::uint8_t* data,
                 std::size_t len);
void ghash(const std::uint8_t h[16], std::uint8_t y[16],
           const std::uint8_t* data, std::size_t len);
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks);

}  // namespace portable

// Callable only when detected() reports the matching feature.
namespace hw {

void aes_encrypt_block(const std::uint8_t* round_keys, int rounds,
                       std::uint8_t block[16]);
void aes_ctr_xor(const std::uint8_t* round_keys, int rounds,
                 const std::uint8_t iv[16], std::uint8_t* data,
                 std::size_t len);

/// Size of the GHASH key table: H, H^2, H^3, H^4 in the kernel's layout.
inline constexpr std::size_t kGhashKeySize = 64;
void ghash_key(const std::uint8_t h[16], std::uint8_t key[kGhashKeySize]);
void ghash(const std::uint8_t key[kGhashKeySize], std::uint8_t y[16],
           const std::uint8_t* data, std::size_t len);

void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks);

}  // namespace hw

}  // namespace stf::crypto::backend
