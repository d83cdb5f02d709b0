// Differential tests: every hardware crypto kernel against the portable
// kernel it replaces, byte for byte, at the lengths where the two differ in
// structure (8-block CTR batches, 4-block GHASH aggregates, SHA-256 padding).
// The hardware cases skip, with the reason logged, on hosts without the
// instructions; the portable oracle itself is covered by crypto_test's
// known-answer vectors.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "crypto/backend.h"
#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"

namespace stf::crypto {
namespace {

#define REQUIRE_AES_CLMUL()                                              \
  if (!backend::detected().aes_clmul)                                    \
  GTEST_SKIP() << "host lacks AES-NI/PCLMULQDQ/SSE4.1: hardware AES and " \
                  "GHASH kernels not exercised"

#define REQUIRE_SHA()                                   \
  if (!backend::detected().sha)                         \
  GTEST_SKIP() << "host lacks SHA-NI/SSE4.1: hardware " \
                  "SHA-256 kernel not exercised"

struct Schedule {
  std::uint8_t round_keys[backend::kMaxRoundKeyBytes];
  int rounds;
};

Schedule schedule(BytesView key) {
  Schedule s{};
  s.rounds = backend::aes_expand_key(key.data(), key.size(), s.round_keys);
  return s;
}

Bytes ctr_portable(const Schedule& s, const std::uint8_t iv[16], Bytes data) {
  backend::portable::aes_ctr_xor(s.round_keys, s.rounds, iv, data.data(),
                                 data.size());
  return data;
}

TEST(CryptoBackendTest, AesSingleBlocks) {
  REQUIRE_AES_CLMUL();
  HmacDrbg rng(to_bytes("aes-single-blocks"));
  for (std::size_t key_len : {16u, 32u}) {
    for (int trial = 0; trial < 64; ++trial) {
      const auto s = schedule(rng.generate(key_len));
      std::uint8_t a[16], b[16];
      rng.fill(a, 16);
      std::memcpy(b, a, 16);
      backend::portable::aes_encrypt_block(s.round_keys, s.rounds, a);
      backend::hw::aes_encrypt_block(s.round_keys, s.rounds, b);
      ASSERT_EQ(0, std::memcmp(a, b, 16))
          << "key_len=" << key_len << " trial=" << trial;
    }
  }
}

TEST(CryptoBackendTest, CtrAllLengthsAndUnalignedOffsets) {
  REQUIRE_AES_CLMUL();
  HmacDrbg rng(to_bytes("ctr-lengths"));
  const Bytes input = rng.generate((64u << 10) + 16);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 1040; ++len) lengths.push_back(len);
  lengths.push_back(64u << 10);

  for (std::size_t key_len : {16u, 32u}) {
    const auto s = schedule(rng.generate(key_len));
    std::uint8_t iv[16];
    rng.fill(iv, 16);
    for (std::size_t len : lengths) {
      // Offsets 0..15 put the data at every alignment relative to 16 bytes.
      const std::size_t offset = len % 16;
      Bytes buf(input.begin(), input.begin() + offset + len);
      backend::hw::aes_ctr_xor(s.round_keys, s.rounds, iv, buf.data() + offset,
                               len);
      const Bytes want = ctr_portable(
          s, iv, Bytes(input.begin() + offset, input.begin() + offset + len));
      ASSERT_EQ(Bytes(buf.begin() + offset, buf.end()), want)
          << "key_len=" << key_len << " len=" << len << " offset=" << offset;
      ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + offset, input.begin()))
          << "bytes before the data were touched, len=" << len;
    }
  }
}

// The counter is the last 4 bytes only: from 0xfffffffe it must step to
// 0xffffffff, wrap to 0 and leave the 12 nonce bytes alone, exactly like the
// portable byte loop (and as GCM's inc32 requires).
TEST(CryptoBackendTest, CtrCounterWrapsModulo2To32) {
  HmacDrbg rng(to_bytes("ctr-wrap"));
  for (std::size_t key_len : {16u, 32u}) {
    const auto s = schedule(rng.generate(key_len));
    std::uint8_t iv[16];
    rng.fill(iv, 12);
    store_be32(iv + 12, 0xfffffffe);
    // 3 blocks straddle the wrap; 8 * 16 + 40 also puts it inside an
    // 8-block hardware batch and its tail.
    for (std::size_t len : {48u, 128u + 40u, 1040u}) {
      const Bytes zeros(len, 0);
      const Bytes portable = ctr_portable(s, iv, zeros);
      // Block i of the keystream is E(nonce || be32(0xfffffffe + i mod 2^32)).
      for (std::size_t i = 0; i * 16 < len; ++i) {
        std::uint8_t block[16];
        std::memcpy(block, iv, 12);
        store_be32(block + 12, static_cast<std::uint32_t>(0xfffffffeu + i));
        backend::portable::aes_encrypt_block(s.round_keys, s.rounds, block);
        ASSERT_EQ(0, std::memcmp(block, portable.data() + 16 * i,
                                 std::min<std::size_t>(16, len - 16 * i)))
            << "key_len=" << key_len << " block=" << i;
      }
      if (!backend::detected().aes_clmul) continue;
      Bytes hw = zeros;
      backend::hw::aes_ctr_xor(s.round_keys, s.rounds, iv, hw.data(),
                               hw.size());
      ASSERT_EQ(hw, portable) << "key_len=" << key_len << " len=" << len;
    }
  }
  if (!backend::detected().aes_clmul) {
    GTEST_SKIP() << "portable wrap checked; host lacks AES-NI for the "
                    "hardware comparison";
  }
}

constexpr std::size_t kAggregationLengths[] = {0,  1,  15,  16,  17,  63,
                                               64, 65, 127, 128, 129};
constexpr std::size_t kAadLengths[] = {0, 1, 20, 64};

TEST(CryptoBackendTest, GhashAtAggregationBoundaries) {
  REQUIRE_AES_CLMUL();
  HmacDrbg rng(to_bytes("ghash-boundaries"));
  for (int trial = 0; trial < 4; ++trial) {
    std::uint8_t h[16];
    rng.fill(h, 16);
    std::uint8_t key[backend::hw::kGhashKeySize];
    backend::hw::ghash_key(h, key);
    for (std::size_t aad_len : kAadLengths) {
      for (std::size_t len : kAggregationLengths) {
        const Bytes aad = rng.generate(aad_len);
        const Bytes data = rng.generate(len);
        std::uint8_t lengths[16];
        store_be64(lengths, aad_len * 8);
        store_be64(lengths + 8, len * 8);
        std::uint8_t y_portable[16] = {}, y_hw[16] = {};
        for (const BytesView part : {BytesView(aad), BytesView(data),
                                     BytesView(lengths, 16)}) {
          backend::portable::ghash(h, y_portable, part.data(), part.size());
          backend::hw::ghash(key, y_hw, part.data(), part.size());
        }
        ASSERT_EQ(0, std::memcmp(y_portable, y_hw, 16))
            << "trial=" << trial << " aad=" << aad_len << " len=" << len;
      }
    }
  }
}

TEST(CryptoBackendTest, SealOpenAtAggregationBoundaries) {
  REQUIRE_AES_CLMUL();
  HmacDrbg rng(to_bytes("seal-boundaries"));
  for (std::size_t key_len : {16u, 32u}) {
    const AesGcm gcm(rng.generate(key_len));
    for (std::size_t aad_len : kAadLengths) {
      for (std::size_t len : kAggregationLengths) {
        const Bytes nonce = rng.generate(AesGcm::kNonceSize);
        const Bytes aad = rng.generate(aad_len);
        const Bytes plaintext = rng.generate(len);
        const Bytes hw = gcm.seal(nonce, aad, plaintext);
        Bytes portable;
        {
          const backend::PortableScope scope;
          portable = gcm.seal(nonce, aad, plaintext);
          // The portable open accepts what the hardware sealed.
          const auto opened = gcm.open(nonce, aad, hw);
          ASSERT_TRUE(opened.has_value());
          EXPECT_EQ(*opened, plaintext);
        }
        ASSERT_EQ(hw, portable)
            << "key_len=" << key_len << " aad=" << aad_len << " len=" << len;
        const auto opened = gcm.open(nonce, aad, portable);
        ASSERT_TRUE(opened.has_value());
        EXPECT_EQ(*opened, plaintext);
        Bytes tampered = hw;
        tampered[tampered.size() / 2] ^= 0x01;
        EXPECT_FALSE(gcm.open(nonce, aad, tampered).has_value());
      }
    }
  }
}

TEST(CryptoBackendTest, Sha256CompressMatchesPortable) {
  REQUIRE_SHA();
  HmacDrbg rng(to_bytes("sha-compress"));
  for (std::size_t nblocks = 1; nblocks <= 9; ++nblocks) {
    std::uint32_t portable[8], hw[8];
    rng.fill(reinterpret_cast<std::uint8_t*>(portable), sizeof portable);
    std::memcpy(hw, portable, sizeof hw);
    const Bytes blocks = rng.generate(64 * nblocks);
    backend::portable::sha256_compress(portable, blocks.data(), nblocks);
    backend::hw::sha256_compress(hw, blocks.data(), nblocks);
    ASSERT_EQ(0, std::memcmp(portable, hw, sizeof hw)) << "nblocks=" << nblocks;
  }
}

TEST(CryptoBackendTest, Sha256PaddingBoundariesAndSplitUpdates) {
  REQUIRE_SHA();
  HmacDrbg rng(to_bytes("sha-padding"));
  for (std::size_t len : {0u, 55u, 56u, 63u, 64u, 119u, 120u, 1000u}) {
    const Bytes msg = rng.generate(len);
    const auto hw = Sha256::hash(msg);
    Sha256::Digest portable;
    {
      const backend::PortableScope scope;
      portable = Sha256::hash(msg);
    }
    ASSERT_EQ(hw, portable) << "len=" << len;
    // Split updates land the block boundary at every offset of the message.
    for (std::size_t split = 0; split <= len; split += (len > 130 ? 37 : 1)) {
      Sha256 h;
      h.update(BytesView(msg.data(), split));
      h.update(BytesView(msg.data() + split, len - split));
      ASSERT_EQ(h.finish(), hw) << "len=" << len << " split=" << split;
    }
  }
}

// PortableScope is per thread: a thread forcing the portable kernels and one
// using the hardware kernels run concurrently and agree byte for byte.
TEST(CryptoBackendTest, PortableScopeIsThreadLocal) {
  const AesGcm gcm(HmacDrbg(to_bytes("scope-key")).generate(16));
  const Bytes nonce(AesGcm::kNonceSize, 0x07);
  const Bytes plaintext = HmacDrbg(to_bytes("scope-data")).generate(4096);
  Bytes sealed[2];
  Sha256::Digest digest[2];
  bool forced_saw_hw = true;
  std::thread forced([&] {
    const backend::PortableScope scope;
    forced_saw_hw = backend::active().aes_clmul || backend::active().sha;
    for (int i = 0; i < 4; ++i) {
      sealed[0] = gcm.seal(nonce, {}, plaintext);
      digest[0] = Sha256::hash(plaintext);
    }
  });
  std::thread dispatched([&] {
    for (int i = 0; i < 4; ++i) {
      sealed[1] = gcm.seal(nonce, {}, plaintext);
      digest[1] = Sha256::hash(plaintext);
    }
  });
  forced.join();
  dispatched.join();
  EXPECT_FALSE(forced_saw_hw);
  EXPECT_EQ(backend::active().aes_clmul, backend::detected().aes_clmul);
  EXPECT_EQ(sealed[0], sealed[1]);
  EXPECT_EQ(digest[0], digest[1]);
}

}  // namespace
}  // namespace stf::crypto
