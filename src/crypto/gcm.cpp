#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/backend.h"

namespace stf::crypto {
namespace backend::portable {
namespace {

// Multiplies x by the GHASH subkey h in GF(2^128) with the GCM bit ordering.
// Bitwise shift-and-add: slow, branches on the bits of x, but dependency-free
// and obviously correct.
void gmul(std::uint8_t x[16], const std::uint8_t h[16]) {
  std::uint8_t z[16] = {};
  std::uint8_t v[16];
  std::memcpy(v, h, 16);
  for (int i = 0; i < 128; ++i) {
    const int byte = i / 8;
    const int bit = 7 - (i % 8);
    if ((x[byte] >> bit) & 1) {
      for (int j = 0; j < 16; ++j) z[j] ^= v[j];
    }
    // v = v >> 1 with conditional reduction by the GCM polynomial.
    const bool lsb = v[15] & 1;
    for (int j = 15; j > 0; --j) {
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  std::memcpy(x, z, 16);
}

}  // namespace

void ghash(const std::uint8_t h[16], std::uint8_t y[16],
           const std::uint8_t* data, std::size_t len) {
  std::size_t offset = 0;
  while (offset < len) {
    const std::size_t take = std::min<std::size_t>(16, len - offset);
    for (std::size_t i = 0; i < take; ++i) y[i] ^= data[offset + i];
    gmul(y, h);
    offset += take;
  }
}

}  // namespace backend::portable

namespace {

void make_j0(BytesView nonce, std::uint8_t j0[16]) {
  // J0 = nonce || 0^31 || 1; data counters start at J0 + 1.
  std::memset(j0, 0, 16);
  std::memcpy(j0, nonce.data(), AesGcm::kNonceSize);
  j0[15] = 1;
}

}  // namespace

AesGcm::AesGcm(BytesView key) : aes_(key) {
  static_assert(sizeof(h_powers_) == backend::hw::kGhashKeySize);
  h_.fill(0);
  aes_.encrypt_block(h_.data());
  if (backend::detected().aes_clmul) {
    backend::hw::ghash_key(h_.data(), h_powers_.data());
  }
}

AesGcm::Block AesGcm::tag(const std::uint8_t j0[16], BytesView aad,
                          BytesView ciphertext) const {
  Block lengths{};
  store_be64(lengths.data(), std::uint64_t{aad.size()} * 8);
  store_be64(lengths.data() + 8, std::uint64_t{ciphertext.size()} * 8);

  Block y{};
  const bool hw = backend::active().aes_clmul;
  for (const BytesView part : {aad, ciphertext, BytesView(lengths)}) {
    if (hw) {
      backend::hw::ghash(h_powers_.data(), y.data(), part.data(), part.size());
    } else {
      backend::portable::ghash(h_.data(), y.data(), part.data(), part.size());
    }
  }

  std::uint8_t ektag[16];
  std::memcpy(ektag, j0, 16);
  aes_.encrypt_block(ektag);
  for (int i = 0; i < 16; ++i) y[i] ^= ektag[i];
  return y;
}

void AesGcm::seal_into(BytesView nonce, BytesView aad, BytesView plaintext,
                       Bytes& out) const {
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("AesGcm: nonce must be 12 bytes");
  }
  if (!plaintext_size_ok(plaintext.size())) {
    throw std::invalid_argument("AesGcm: plaintext over the SP 800-38D limit");
  }
  std::uint8_t j0[16];
  make_j0(nonce, j0);
  std::uint8_t ctr1[16];
  std::memcpy(ctr1, j0, 16);
  ctr1[15] = 2;

  const std::size_t start = out.size();
  out.reserve(start + plaintext.size() + kTagSize);
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  aes_.ctr_xor(ctr1, out.data() + start, plaintext.size());

  const Block t = tag(j0, aad, BytesView(out.data() + start, plaintext.size()));
  out.insert(out.end(), t.begin(), t.end());
}

Bytes AesGcm::seal(BytesView nonce, BytesView aad, BytesView plaintext) const {
  Bytes out;
  seal_into(nonce, aad, plaintext, out);
  return out;
}

std::optional<Bytes> AesGcm::open(BytesView nonce, BytesView aad,
                                  BytesView ciphertext_and_tag) const {
  if (nonce.size() != kNonceSize || ciphertext_and_tag.size() < kTagSize ||
      !plaintext_size_ok(ciphertext_and_tag.size() - kTagSize)) {
    return std::nullopt;
  }
  const BytesView ciphertext =
      ciphertext_and_tag.first(ciphertext_and_tag.size() - kTagSize);
  const BytesView received_tag = ciphertext_and_tag.last(kTagSize);

  std::uint8_t j0[16];
  make_j0(nonce, j0);
  const Block t = tag(j0, aad, ciphertext);
  if (!ct_equal(BytesView(t.data(), t.size()), received_tag)) {
    return std::nullopt;
  }

  std::uint8_t ctr1[16];
  std::memcpy(ctr1, j0, 16);
  ctr1[15] = 2;
  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  aes_.ctr_xor(ctr1, plaintext.data(), plaintext.size());
  return plaintext;
}

}  // namespace stf::crypto
