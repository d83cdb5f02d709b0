// Unit tests for the cryptographic substrate, validated against published
// test vectors (FIPS 180-4, RFC 4231, FIPS 197, NIST GCM, RFC 7748, RFC 5869).
// The AES, GCM, SHA-256, HMAC and HKDF vectors run through both crypto
// backends: once as the host dispatches, once with the portable kernels
// forced.
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/backend.h"
#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

namespace stf::crypto {
namespace {

std::string hex_digest(const Sha256::Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

// Runs `check` through the public API as this host dispatches it, then again
// with the portable kernels forced on this thread.
template <class F>
void on_both_backends(F&& check) {
  {
    const auto& hw = backend::detected();
    SCOPED_TRACE(hw.aes_clmul || hw.sha ? "dispatched (hardware kernels)"
                                        : "dispatched (no hardware kernels)");
    check();
  }
  {
    SCOPED_TRACE("portable kernels forced");
    const backend::PortableScope portable;
    check();
  }
}

TEST(Sha256Test, EmptyString) {
  on_both_backends([&] {
    EXPECT_EQ(hex_digest(Sha256::hash({})),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  });
}

TEST(Sha256Test, Abc) {
  on_both_backends([&] {
    const auto msg = to_bytes("abc");
    EXPECT_EQ(hex_digest(Sha256::hash(msg)),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  });
}

TEST(Sha256Test, TwoBlockMessage) {
  on_both_backends([&] {
    const auto msg =
        to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(hex_digest(Sha256::hash(msg)),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  });
}

TEST(Sha256Test, MillionAs) {
  on_both_backends([&] {
    Sha256 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex_digest(h.finish()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  });
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  on_both_backends([&] {
    const auto msg = to_bytes("The quick brown fox jumps over the lazy dog");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
      Sha256 h;
      h.update(BytesView(msg.data(), split));
      h.update(BytesView(msg.data() + split, msg.size() - split));
      EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "split=" << split;
    }
  });
}

TEST(Sha256Test, PaddingBoundaryLengths) {
  on_both_backends([&] {
    // Lengths straddling the 55/56/63/64 padding boundaries must all hash
    // without corrupting internal state.
    for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
      const Bytes msg(len, 0x5a);
      Sha256 a;
      a.update(msg);
      const auto one_shot = a.finish();
      Sha256 b;
      for (std::size_t i = 0; i < len; ++i) b.update(BytesView(&msg[i], 1));
      EXPECT_EQ(one_shot, b.finish()) << "len=" << len;
    }
  });
}

TEST(HmacTest, Rfc4231Case1) {
  on_both_backends([&] {
    const Bytes key(20, 0x0b);
    const auto data = to_bytes("Hi There");
    EXPECT_EQ(hex_digest(hmac_sha256(key, data)),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  });
}

TEST(HmacTest, Rfc4231Case2) {
  on_both_backends([&] {
    const auto key = to_bytes("Jefe");
    const auto data = to_bytes("what do ya want for nothing?");
    EXPECT_EQ(hex_digest(hmac_sha256(key, data)),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  });
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  on_both_backends([&] {
    const Bytes key(131, 0xaa);
    const auto data =
        to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(hex_digest(hmac_sha256(key, data)),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  });
}

TEST(HkdfTest, Rfc5869Case1) {
  on_both_backends([&] {
    const Bytes ikm(22, 0x0b);
    const auto salt = from_hex("000102030405060708090a0b0c");
    const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
    const auto okm = hkdf(salt, ikm, info, 42);
    EXPECT_EQ(to_hex(okm),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865");
  });
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  on_both_backends([&] {
    const Bytes ikm(22, 0x0b);
    const auto okm = hkdf({}, ikm, {}, 42);
    EXPECT_EQ(to_hex(okm),
              "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
              "9d201395faa4b61a96c8");
  });
}

TEST(AesTest, Fips197Aes128) {
  on_both_backends([&] {
    const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
    Aes aes(key);
    auto block = from_hex("00112233445566778899aabbccddeeff");
    aes.encrypt_block(block.data());
    EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
  });
}

TEST(AesTest, Fips197Aes256) {
  on_both_backends([&] {
    const auto key = from_hex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
    Aes aes(key);
    auto block = from_hex("00112233445566778899aabbccddeeff");
    aes.encrypt_block(block.data());
    EXPECT_EQ(to_hex(block), "8ea2b7ca516745bfeafc49904b496089");
  });
}

TEST(AesTest, RejectsBadKeySize) {
  const Bytes key(24, 0);  // AES-192 intentionally unsupported
  EXPECT_THROW(Aes{key}, std::invalid_argument);
}

TEST(AesTest, CtrRoundTrip) {
  on_both_backends([&] {
    const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
    Aes aes(key);
    Bytes data = to_bytes("counter mode round trip with arbitrary length !");
    const Bytes original = data;
    std::uint8_t iv[16] = {0};
    iv[15] = 1;
    aes.ctr_xor(iv, data.data(), data.size());
    EXPECT_NE(data, original);
    aes.ctr_xor(iv, data.data(), data.size());
    EXPECT_EQ(data, original);
  });
}

// NIST GCM test vector (AES-128, 96-bit IV, with AAD).
TEST(GcmTest, NistVectorWithAad) {
  on_both_backends([&] {
    const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
    const auto iv = from_hex("cafebabefacedbaddecaf888");
    const auto plaintext = from_hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    const auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    AesGcm gcm(key);
    const auto sealed = gcm.seal(iv, aad, plaintext);
    const auto expect_ct = from_hex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
    const auto expect_tag = from_hex("5bc94fbc3221a5db94fae95ae7121a47");
    ASSERT_EQ(sealed.size(), expect_ct.size() + expect_tag.size());
    EXPECT_EQ(to_hex(BytesView(sealed.data(), expect_ct.size())),
              to_hex(expect_ct));
    EXPECT_EQ(to_hex(BytesView(sealed.data() + expect_ct.size(), 16)),
              to_hex(expect_tag));

    const auto opened = gcm.open(iv, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, plaintext);
  });
}

TEST(GcmTest, EmptyPlaintextProducesTagOnly) {
  on_both_backends([&] {
    const auto key = from_hex("00000000000000000000000000000000");
    const auto iv = from_hex("000000000000000000000000");
    AesGcm gcm(key);
    const auto sealed = gcm.seal(iv, {}, {});
    ASSERT_EQ(sealed.size(), AesGcm::kTagSize);
    EXPECT_EQ(to_hex(sealed), "58e2fccefa7e3061367f1d57a4e7455a");
  });
}

// McGrew & Viega, "The Galois/Counter Mode of Operation", test cases 2, 3
// (AES-128, no AAD) and 14-16 (AES-256): 16 and 64 bytes cover one block
// and exactly one 4-block GHASH aggregate; case 16 adds AAD and a partial
// final block.
TEST(GcmTest, McGrewViegaVectors) {
  struct Vector {
    const char* name;
    const char* key;
    const char* iv;
    const char* aad;
    const char* plaintext;
    const char* ciphertext;
    const char* tag;
  };
  const char* const kPlain64 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const char* const kPlain60 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";
  const char* const kKey256 =
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
  const Vector vectors[] = {
      {"case 2", "00000000000000000000000000000000", "000000000000000000000000",
       "", "00000000000000000000000000000000",
       "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
      {"case 3", "feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "", kPlain64,
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {"case 14",
       "0000000000000000000000000000000000000000000000000000000000000000",
       "000000000000000000000000", "", "00000000000000000000000000000000",
       "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"},
      {"case 15", kKey256, "cafebabefacedbaddecaf888", "", kPlain64,
       "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
       "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
       "b094dac5d93471bdec1a502270e3cc6c"},
      {"case 16", kKey256, "cafebabefacedbaddecaf888",
       "feedfacedeadbeeffeedfacedeadbeefabaddad2", kPlain60,
       "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
       "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
       "76fc6ece0f4e1768cddf8853bb2d551b"},
  };
  on_both_backends([&] {
    for (const auto& v : vectors) {
      SCOPED_TRACE(v.name);
      const AesGcm gcm(from_hex(v.key));
      const auto iv = from_hex(v.iv);
      const auto aad = from_hex(v.aad);
      const auto sealed = gcm.seal(iv, aad, from_hex(v.plaintext));
      EXPECT_EQ(to_hex(sealed), std::string(v.ciphertext) + v.tag);
      const auto opened = gcm.open(iv, aad, sealed);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(to_hex(*opened), v.plaintext);
    }
  });
}

// SP 800-38D caps one message at 2^39 - 256 bits: the 32-bit block counter
// starts at 2, so 2^32 - 2 blocks is the most it can number without reuse.
TEST(GcmTest, Sp80038dLengthLimit) {
  EXPECT_EQ(AesGcm::kMaxPlaintextSize * 8, (1ull << 39) - 256);
  EXPECT_EQ(AesGcm::kMaxPlaintextSize, ((1ull << 32) - 2) * 16);
  EXPECT_TRUE(AesGcm::plaintext_size_ok(0));
  EXPECT_TRUE(AesGcm::plaintext_size_ok(AesGcm::kMaxPlaintextSize));
  EXPECT_FALSE(AesGcm::plaintext_size_ok(AesGcm::kMaxPlaintextSize + 1));
  EXPECT_FALSE(AesGcm::plaintext_size_ok(~std::uint64_t{0}));
}

TEST(GcmTest, SealIntoAppendsAfterHeader) {
  const AesGcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"));
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  const auto aad = to_bytes("header");
  const auto plaintext = to_bytes("record body that spans two blocks");
  Bytes record = to_bytes("HDR");
  gcm.seal_into(iv, aad, plaintext, record);
  const auto sealed = gcm.seal(iv, aad, plaintext);
  ASSERT_EQ(record.size(), 3 + sealed.size());
  EXPECT_EQ(Bytes(record.begin(), record.begin() + 3), to_bytes("HDR"));
  EXPECT_EQ(Bytes(record.begin() + 3, record.end()), sealed);
}

TEST(GcmTest, TamperedCiphertextRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  auto sealed = gcm.seal(iv, {}, to_bytes("shielded model weights"));
  sealed[3] ^= 0x01;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(GcmTest, TamperedTagRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  auto sealed = gcm.seal(iv, {}, to_bytes("payload"));
  sealed.back() ^= 0x80;
  EXPECT_FALSE(gcm.open(iv, {}, sealed).has_value());
}

TEST(GcmTest, WrongAadRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  const auto iv = from_hex("cafebabefacedbaddecaf888");
  AesGcm gcm(key);
  const auto sealed = gcm.seal(iv, to_bytes("chunk-0"), to_bytes("payload"));
  EXPECT_FALSE(gcm.open(iv, to_bytes("chunk-1"), sealed).has_value());
  EXPECT_TRUE(gcm.open(iv, to_bytes("chunk-0"), sealed).has_value());
}

TEST(GcmTest, WrongNonceRejected) {
  const auto key = from_hex("feffe9928665731c6d6a8f9467308308");
  AesGcm gcm(key);
  const auto sealed =
      gcm.seal(from_hex("000000000000000000000001"), {}, to_bytes("payload"));
  EXPECT_FALSE(
      gcm.open(from_hex("000000000000000000000002"), {}, sealed).has_value());
}

TEST(X25519Test, Rfc7748Vector1) {
  X25519::Key scalar{}, point{};
  const auto s = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto p = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(p.begin(), p.end(), point.begin());
  const auto out = X25519::scalarmult(scalar, point);
  EXPECT_EQ(to_hex(BytesView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748BasePoint) {
  // Alice's key pair from RFC 7748 §6.1.
  X25519::Key secret{};
  const auto s = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  std::copy(s.begin(), s.end(), secret.begin());
  const auto pub = X25519::public_from_secret(secret);
  EXPECT_EQ(to_hex(BytesView(pub.data(), pub.size())),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
}

TEST(X25519Test, DiffieHellmanAgreement) {
  HmacDrbg drbg(to_bytes("x25519-agreement-seed"));
  for (int i = 0; i < 8; ++i) {
    X25519::Key a{}, b{};
    drbg.fill(a.data(), a.size());
    drbg.fill(b.data(), b.size());
    const auto pub_a = X25519::public_from_secret(a);
    const auto pub_b = X25519::public_from_secret(b);
    EXPECT_EQ(X25519::scalarmult(a, pub_b), X25519::scalarmult(b, pub_a));
  }
}

TEST(DrbgTest, DeterministicForSameSeed) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes("seed-a"));
  HmacDrbg b(to_bytes("seed-b"));
  EXPECT_NE(a.generate(64), b.generate(64));
}

TEST(DrbgTest, ReseedChangesStream) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  (void)a.generate(16);
  (void)b.generate(16);
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(DrbgTest, UniformStaysInBounds) {
  HmacDrbg drbg(to_bytes("uniform"));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(drbg.uniform(7), 7u);
  }
  EXPECT_THROW(drbg.uniform(0), std::invalid_argument);
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(from_hex(to_hex(data)), data);
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // bad digit
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ct_equal(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(ct_equal(to_bytes("same"), to_bytes("sane")));
  EXPECT_FALSE(ct_equal(to_bytes("short"), to_bytes("longer")));
}

TEST(BytesTest, EndianHelpers) {
  std::uint8_t buf[8];
  store_be64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_be64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0x01);
  store_le64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0xef);
}

}  // namespace
}  // namespace stf::crypto
