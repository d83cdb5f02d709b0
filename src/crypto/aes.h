// AES-128/256 block cipher (FIPS 197) with CTR keystream helper.
//
// This is the cipher behind the file-system shield's chunk sealing, the MEE
// page sealing in the TEE simulator, and the network shield's record layer
// (all via AES-GCM, see gcm.h).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"

namespace stf::crypto {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Constructs the key schedule. `key` must be 16 (AES-128) or 32 (AES-256)
  /// bytes; other lengths throw std::invalid_argument.
  explicit Aes(BytesView key);

  /// Encrypts exactly one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// CTR mode: XORs `data` (in place) with the keystream generated from the
  /// 16-byte initial counter block `iv`. Encryption and decryption are the
  /// same operation. The counter is the big-endian word in the last 4 bytes
  /// and wraps modulo 2^32 (the GCM convention).
  void ctr_xor(const std::uint8_t iv[kBlockSize], std::uint8_t* data,
               std::size_t len) const;

 private:
  int rounds_ = 0;
  // Byte-order schedule shared by both backends (crypto/backend.h); max is
  // AES-256's 15 round keys of 16 bytes.
  alignas(16) std::array<std::uint8_t, 240> round_keys_{};
};

}  // namespace stf::crypto
