// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// Every confidentiality+integrity boundary in secureTF — sealed EPC pages,
// file-system-shield chunks, network-shield records, the CAS secret store —
// goes through this AEAD.
#pragma once

#include <optional>

#include "crypto/aes.h"
#include "crypto/bytes.h"

namespace stf::crypto {

class AesGcm {
 public:
  static constexpr std::size_t kTagSize = 16;
  static constexpr std::size_t kNonceSize = 12;
  /// SP 800-38D bound on one message: 2^39 - 256 bits. Past it the 32-bit
  /// block counter would wrap and reuse keystream.
  static constexpr std::uint64_t kMaxPlaintextSize = (1ull << 36) - 32;

  /// True if a message of `size` bytes is within kMaxPlaintextSize.
  static constexpr bool plaintext_size_ok(std::uint64_t size) {
    return size <= kMaxPlaintextSize;
  }

  /// Key must be 16 or 32 bytes (AES-128-GCM / AES-256-GCM).
  explicit AesGcm(BytesView key);

  /// Encrypts `plaintext` bound to `aad`. Returns ciphertext || tag.
  /// `nonce` must be 12 bytes and MUST be unique per key. Throws
  /// std::invalid_argument for a bad nonce or a plaintext over
  /// kMaxPlaintextSize.
  Bytes seal(BytesView nonce, BytesView aad, BytesView plaintext) const;

  /// As seal(), but appends ciphertext || tag to `out` with one allocation,
  /// so a caller can put its own header in front. `aad` and `plaintext`
  /// must not point into `out`.
  void seal_into(BytesView nonce, BytesView aad, BytesView plaintext,
                 Bytes& out) const;

  /// Authenticates and decrypts `ciphertext_and_tag`. Returns std::nullopt if
  /// the tag does not verify (tampered data, wrong key, wrong aad or nonce)
  /// or the ciphertext is over kMaxPlaintextSize.
  std::optional<Bytes> open(BytesView nonce, BytesView aad,
                            BytesView ciphertext_and_tag) const;

 private:
  using Block = std::array<std::uint8_t, 16>;

  Block tag(const std::uint8_t j0[16], BytesView aad,
            BytesView ciphertext) const;

  Aes aes_;
  Block h_{};  // GHASH subkey: AES_K(0^128)
  // H..H^4 for the hardware GHASH; filled only on hosts that have it.
  alignas(16) std::array<std::uint8_t, 64> h_powers_{};
};

}  // namespace stf::crypto
