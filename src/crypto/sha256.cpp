#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/backend.h"

namespace stf::crypto {
namespace {

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

namespace backend::portable {

void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace backend::portable

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t nblocks) {
  if (backend::active().sha) {
    backend::hw::sha256_compress(state_.data(), blocks, nblocks);
  } else {
    backend::portable::sha256_compress(state_.data(), blocks, nblocks);
  }
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - offset) / kBlockSize;
  if (nblocks > 0) {
    compress(data.data() + offset, nblocks);
    offset += nblocks * kBlockSize;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256::Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad with 0x80 then zeros so that after appending the 8-byte length the
  // message is block-aligned (buffer_len_ must land on 56 mod 64).
  std::uint8_t padding[kBlockSize + 8] = {0x80};
  const std::size_t pad_len = (buffer_len_ < 56)
                                  ? (56 - buffer_len_)
                                  : (56 + kBlockSize - buffer_len_);
  update(BytesView(padding, pad_len));
  std::uint8_t len_bytes[8];
  store_be64(len_bytes, bit_len);
  update(BytesView(len_bytes, 8));

  Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace stf::crypto
