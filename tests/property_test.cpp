// Property-based and parameterized tests: invariants that must hold across
// swept inputs, random operation sequences checked against reference models,
// and adversarial fuzzing of every parser.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "ml/dataset.h"
#include "ml/lite/flat_model.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "net/network.h"
#include "runtime/fs_shield.h"
#include "runtime/scheduler.h"
#include "runtime/secure_channel.h"
#include "storage/kv_store.h"
#include "tee/epc.h"
#include "tee/platform.h"

namespace stf {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

// ---------------------------------------------------------------------------
// Crypto properties
// ---------------------------------------------------------------------------

class GcmSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmSizeSweep, RoundTripEverySize) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("payload"));
  const Bytes nonce = rng.generate(12);
  const Bytes plaintext = rng.generate(GetParam());
  const auto sealed = gcm.seal(nonce, to_bytes("aad"), plaintext);
  EXPECT_EQ(sealed.size(), plaintext.size() + crypto::AesGcm::kTagSize);
  const auto opened = gcm.open(nonce, to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST_P(GcmSizeSweep, AnySingleBitFlipRejected) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("flip"));
  const Bytes nonce = rng.generate(12);
  const Bytes plaintext = rng.generate(GetParam());
  const auto sealed = gcm.seal(nonce, {}, plaintext);
  // Flip one random bit in each of 16 trials.
  for (int trial = 0; trial < 16; ++trial) {
    Bytes corrupted = sealed;
    const auto bit = rng.uniform(corrupted.size() * 8);
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(gcm.open(nonce, {}, corrupted).has_value())
        << "bit " << bit << " flip must be detected";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 64, 100, 255,
                                           256, 1000, 4096));

TEST(CryptoProperty, Sha256AnyChunkingAgrees) {
  crypto::HmacDrbg rng(to_bytes("chunking"));
  const Bytes message = rng.generate(1000);
  const auto reference = crypto::Sha256::hash(message);
  for (int trial = 0; trial < 50; ++trial) {
    crypto::Sha256 h;
    std::size_t offset = 0;
    while (offset < message.size()) {
      const std::size_t take =
          1 + rng.uniform(std::min<std::size_t>(97, message.size() - offset));
      h.update(crypto::BytesView(message.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(h.finish(), reference);
  }
}

TEST(CryptoProperty, GcmDistinctNoncesDistinctCiphertexts) {
  const auto key = crypto::HmacDrbg(to_bytes("k")).generate(16);
  crypto::AesGcm gcm(key);
  crypto::HmacDrbg rng(to_bytes("nonces"));
  const Bytes plaintext = rng.generate(64);
  std::map<Bytes, int> seen;
  for (int i = 0; i < 32; ++i) {
    const Bytes nonce = rng.generate(12);
    ++seen[gcm.seal(nonce, {}, plaintext)];
  }
  EXPECT_EQ(seen.size(), 32u) << "same plaintext must never repeat on wire";
}

TEST(CryptoProperty, X25519ManyAgreements) {
  crypto::HmacDrbg rng(to_bytes("dh-sweep"));
  for (int i = 0; i < 24; ++i) {
    crypto::X25519::Key a{}, b{};
    rng.fill(a.data(), a.size());
    rng.fill(b.data(), b.size());
    const auto shared_ab =
        crypto::X25519::scalarmult(a, crypto::X25519::public_from_secret(b));
    const auto shared_ba =
        crypto::X25519::scalarmult(b, crypto::X25519::public_from_secret(a));
    ASSERT_EQ(shared_ab, shared_ba) << "trial " << i;
    // The shared secret must not equal either public key.
    EXPECT_NE(shared_ab, crypto::X25519::public_from_secret(a));
    EXPECT_NE(shared_ab, crypto::X25519::public_from_secret(b));
  }
}

// ---------------------------------------------------------------------------
// EPC invariants under random operation sequences
// ---------------------------------------------------------------------------

TEST(EpcProperty, InvariantsUnderRandomOps) {
  tee::CostModel model;
  model.epc_bytes = 32 * model.page_size;
  tee::EpcManager epc(model, /*limited=*/true);
  tee::SimClock clock;
  crypto::HmacDrbg rng(to_bytes("epc-fuzz"));

  std::vector<std::pair<tee::RegionId, std::uint64_t>> regions;  // id, bytes
  for (int step = 0; step < 2000; ++step) {
    const auto action = rng.uniform(10);
    if (action < 2 || regions.empty()) {
      const std::uint64_t bytes = (1 + rng.uniform(20)) * model.page_size;
      regions.emplace_back(epc.map_region("r", bytes), bytes);
    } else if (action < 3 && regions.size() > 1) {
      const auto victim = rng.uniform(regions.size());
      epc.unmap_region(regions[victim].first);
      regions.erase(regions.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto& [id, bytes] = regions[rng.uniform(regions.size())];
      const std::uint64_t offset = rng.uniform(bytes);
      const std::uint64_t len = 1 + rng.uniform(bytes - offset);
      epc.access(id, offset, len, rng.uniform(2) == 0, clock);
    }
    ASSERT_LE(epc.resident_pages(), epc.capacity_pages())
        << "residency must never exceed capacity (step " << step << ")";
    ASSERT_EQ(epc.stats().faults, epc.stats().loads)
        << "every fault loads exactly one page";
    ASSERT_GE(epc.stats().loads,
              epc.stats().evictions)  // can't evict more than was loaded
        << "eviction accounting broke";
  }
}

TEST(EpcProperty, ClockMonotoneUnderAllOperations) {
  tee::CostModel model;
  model.epc_bytes = 8 * model.page_size;
  tee::EpcManager epc(model, true);
  tee::SimClock clock;
  crypto::HmacDrbg rng(to_bytes("epc-time"));
  const auto region = epc.map_region("r", 64 * model.page_size);
  std::uint64_t last = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t offset =
        rng.uniform(63 * model.page_size);
    epc.access(region, offset, model.page_size, false, clock);
    ASSERT_GE(clock.now_ns(), last);
    last = clock.now_ns();
  }
}

// ---------------------------------------------------------------------------
// File-system shield sweeps
// ---------------------------------------------------------------------------

struct FsShieldParam {
  std::size_t chunk_size;
  std::size_t file_size;
};

class FsShieldSweep : public ::testing::TestWithParam<FsShieldParam> {};

TEST_P(FsShieldSweep, RoundTripAndTamperDetection) {
  const auto [chunk_size, file_size] = GetParam();
  tee::CostModel model;
  tee::SimClock clock;
  runtime::UntrustedFs host;
  crypto::HmacDrbg rng(to_bytes("fs-sweep"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  runtime::FsShield shield(
      runtime::FsShieldConfig{
          .prefixes = {{"/", runtime::ShieldPolicy::Encrypt}},
          .chunk_size = chunk_size},
      key, host, model, clock, rng);

  const Bytes data = crypto::HmacDrbg(to_bytes("data")).generate(file_size);
  shield.write("/f", data);
  EXPECT_EQ(shield.read("/f"), data);

  if (!data.empty()) {
    // Tamper at a pseudo-random offset of the stored ciphertext.
    ASSERT_TRUE(host.tamper("/f", file_size / 2 + 11));
    EXPECT_THROW((void)shield.read("/f"), runtime::SecurityError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkAndSize, FsShieldSweep,
    ::testing::Values(FsShieldParam{16, 0}, FsShieldParam{16, 1},
                      FsShieldParam{16, 15}, FsShieldParam{16, 16},
                      FsShieldParam{16, 17}, FsShieldParam{64, 1000},
                      FsShieldParam{1024, 1024}, FsShieldParam{1024, 1025},
                      FsShieldParam{4096, 100'000},
                      FsShieldParam{65536, 65536}));

TEST(FsShieldProperty, ModeledFidelityMatchesRealCostAccounting) {
  // The Modeled fidelity must charge the same virtual time as Real crypto.
  tee::CostModel model;
  crypto::HmacDrbg rng1(to_bytes("r")), rng2(to_bytes("r"));
  const auto key = crypto::HmacDrbg(to_bytes("key")).generate(32);
  const Bytes data = crypto::HmacDrbg(to_bytes("d")).generate(300'000);

  tee::SimClock real_clock, modeled_clock;
  runtime::UntrustedFs host1, host2;
  runtime::FsShield real_shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}}}, key, host1, model,
      real_clock, rng1);
  runtime::FsShield modeled_shield(
      {.prefixes = {{"/", runtime::ShieldPolicy::Encrypt}},
       .fidelity = runtime::CryptoFidelity::Modeled},
      key, host2, model, modeled_clock, rng2);

  real_shield.write("/f", data);
  (void)real_shield.read("/f");
  modeled_shield.write("/f", data);
  (void)modeled_shield.read("/f");
  EXPECT_EQ(real_clock.now_ns(), modeled_clock.now_ns());
}

// ---------------------------------------------------------------------------
// Secure channel under a randomized adversary
// ---------------------------------------------------------------------------

TEST(ChannelProperty, RandomAdversaryNeverCorruptsSilently) {
  // Whatever the adversary does, the receiver either gets exactly the sent
  // payload in order, detects a violation, or sees nothing — never wrong
  // data accepted as valid.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    tee::CostModel model;
    tee::SimClock ca, cb;
    net::SimNetwork net;
    crypto::HmacDrbg rng(to_bytes("adv-" + std::to_string(seed)));
    const auto a = net.add_node("a", ca);
    const auto b = net.add_node("b", cb);
    auto [conn_a, conn_b] = net.connect(a, b);
    runtime::ChannelHandshake hs_a(runtime::ChannelHandshake::Role::Client,
                                   rng);
    runtime::ChannelHandshake hs_b(runtime::ChannelHandshake::Role::Server,
                                   rng);
    conn_a.send(hs_a.hello());
    conn_b.send(hs_b.hello());
    auto hello_a = conn_b.recv();
    auto hello_b = conn_a.recv();
    auto chan_a = hs_a.finish(*hello_b, conn_a, model, ca);
    auto chan_b = hs_b.finish(*hello_a, conn_b, model, cb);

    crypto::HmacDrbg adversary_rng(to_bytes("dice-" + std::to_string(seed)));
    net.set_adversary([&adversary_rng](Bytes& payload) {
      switch (adversary_rng.uniform(5)) {
        case 0: return net::AdversaryAction::Drop;
        case 1:
          payload[adversary_rng.uniform(payload.size())] ^= 0x40;
          return net::AdversaryAction::Tamper;
        case 2: return net::AdversaryAction::Replay;
        case 3: return net::AdversaryAction::Delay;
        default: return net::AdversaryAction::Pass;
      }
    });

    std::vector<Bytes> sent;
    for (int i = 0; i < 20; ++i) {
      sent.push_back(to_bytes("msg-" + std::to_string(seed) + "-" +
                              std::to_string(i)));
      chan_a.send(sent.back());
    }
    std::size_t next_expected = 0;
    for (;;) {
      std::optional<Bytes> got;
      try {
        got = chan_b.recv();
      } catch (const runtime::SecurityError&) {
        break;  // detected manipulation: the channel is dead, that's safe
      }
      if (!got.has_value()) break;  // nothing more in flight
      ASSERT_LT(next_expected, sent.size());
      ASSERT_EQ(*got, sent[next_expected])
          << "silently corrupted/reordered delivery (seed " << seed << ")";
      ++next_expected;
    }
  }
}

// ---------------------------------------------------------------------------
// KV store against a reference model
// ---------------------------------------------------------------------------

TEST(KvStoreProperty, MatchesReferenceUnderRandomOps) {
  storage::MonotonicCounterService counters;
  crypto::HmacDrbg rng(to_bytes("kv-fuzz"));
  const auto key = crypto::HmacDrbg(to_bytes("kv-key")).generate(32);
  storage::EncryptedKvStore store(key, counters, "db", rng);
  std::map<std::string, Bytes> reference;

  for (int step = 0; step < 600; ++step) {
    const auto k = "key-" + std::to_string(rng.uniform(20));
    switch (rng.uniform(4)) {
      case 0: {
        Bytes v = rng.generate(rng.uniform(64));
        reference[k] = v;
        store.put(k, std::move(v));
        break;
      }
      case 1:
        reference.erase(k);
        store.erase(k);
        break;
      case 2: {
        const auto got = store.get(k);
        const auto it = reference.find(k);
        ASSERT_EQ(got.has_value(), it != reference.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      default: {
        // Seal/load cycle must preserve the exact contents.
        const auto sealed = store.seal();
        storage::EncryptedKvStore restored(key, counters, "db", rng);
        ASSERT_TRUE(restored.load(sealed));
        ASSERT_EQ(restored.size(), reference.size());
        break;
      }
    }
    ASSERT_EQ(store.size(), reference.size());
  }
}

// ---------------------------------------------------------------------------
// Serialization fuzzing: random corruption must never crash or mis-load
// ---------------------------------------------------------------------------

TEST(SerializeProperty, CorruptedGraphNeverCrashes) {
  const auto blob = ml::serialize_graph(ml::mnist_mlp(8, 3));
  crypto::HmacDrbg rng(to_bytes("graph-fuzz"));
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = blob;
    const auto mutations = 1 + rng.uniform(4);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      corrupted[rng.uniform(corrupted.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    try {
      const ml::Graph g = ml::deserialize_graph(corrupted);
      // If it parsed, it must at least be structurally sound.
      (void)g.node_count();
    } catch (const std::exception&) {
      // rejecting is always fine
    }
  }
}

TEST(SerializeProperty, TruncatedLiteModelNeverCrashes) {
  ml::Graph g = ml::mnist_mlp(8, 3);
  ml::Session s(g);
  const auto blob =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs")
          .serialize();
  for (std::size_t len = 0; len < blob.size(); len += 97) {
    Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW((void)ml::lite::FlatModel::deserialize(truncated),
                 std::runtime_error)
        << "len=" << len;
  }
}

// Byte positions of the fields of a serialized FlatModel (format version 2,
// or 3 for calibrated models) that name tensors, weight windows or window
// geometry.
struct LiteLayout {
  std::uint32_t n_tensors = 0;
  std::vector<std::size_t> weight_offset;  ///< per weight tensor
  std::vector<std::size_t> first_dim;      ///< per weight tensor
  std::vector<std::size_t> op_index;       ///< every op input and output
  std::vector<std::size_t> op_output;       ///< per op
  std::vector<std::uint32_t> weight_index;  ///< per weight tensor
  std::vector<std::size_t> last_target;     ///< the last reshape's target dims
  std::vector<std::size_t> target_dim;     ///< every reshape target dim
  std::vector<std::size_t> stride;  ///< every Conv2D / pooling op's stride
  std::vector<std::size_t> window;  ///< ... and its window
  std::size_t max_pool_stride = 0;  ///< the first MaxPool2D's stride, or 0
  std::size_t avg_pool_stride = 0;  ///< the first AvgPool2D's stride, or 0
  std::size_t model_input = 0, model_output = 0, n_weights = 0;
  std::int64_t arena = 0;                  ///< weight elements
};

LiteLayout lite_layout(const Bytes& blob) {
  LiteLayout l;
  const bool calibrated = crypto::load_be32(blob.data() + 4) == 3;
  std::size_t pos = 9;  // magic, version, quantized flag
  l.n_tensors = crypto::load_be32(blob.data() + pos);
  pos += 4;
  for (std::uint32_t i = 0; i < l.n_tensors; ++i) {
    const std::uint32_t rank = crypto::load_be32(blob.data() + pos);
    const std::size_t dims = pos + 4;
    pos = dims + 8 * rank;
    if (static_cast<std::int64_t>(crypto::load_be64(blob.data() + pos)) >= 0 &&
        rank > 0) {
      l.weight_offset.push_back(pos);
      l.first_dim.push_back(dims);
      l.weight_index.push_back(i);
    }
    pos += 8 + 4 + (calibrated ? 8 : 0);  // offset, scale, act range
  }
  const std::uint32_t n_ops = crypto::load_be32(blob.data() + pos);
  pos += 4;
  for (std::uint32_t i = 0; i < n_ops; ++i) {
    const auto type = static_cast<ml::OpType>(blob[pos]);
    if (type == ml::OpType::Conv2D || type == ml::OpType::MaxPool2D ||
        type == ml::OpType::AvgPool2D) {
      l.stride.push_back(pos + 1);
      l.window.push_back(pos + 9);
      if (type == ml::OpType::MaxPool2D && l.max_pool_stride == 0) {
        l.max_pool_stride = pos + 1;
      }
      if (type == ml::OpType::AvgPool2D && l.avg_pool_stride == 0) {
        l.avg_pool_stride = pos + 1;
      }
    }
    pos += 1 + 8 + 8 + 4;  // type, stride, window, scalar
    const std::uint32_t target_rank = crypto::load_be32(blob.data() + pos);
    pos += 4;
    if (type == ml::OpType::Reshape) l.last_target.clear();
    for (std::uint32_t j = 0; j < target_rank; ++j) {
      l.target_dim.push_back(pos);
      if (type == ml::OpType::Reshape) l.last_target.push_back(pos);
      pos += 8;
    }
    const std::uint32_t n_inputs = crypto::load_be32(blob.data() + pos);
    pos += 4;
    for (std::uint32_t j = 0; j <= n_inputs; ++j) {  // inputs, then output
      l.op_index.push_back(pos);
      pos += 4;
    }
    l.op_output.push_back(pos - 4);
  }
  l.model_input = pos;
  l.model_output = pos + 4;
  l.n_weights = pos + 8;
  l.arena = static_cast<std::int64_t>(crypto::load_be64(blob.data() + pos + 8));
  return l;
}

// Each mutation would make the interpreter read outside the weight arena,
// index past the tensor table, overflow an element count, divide by a zero
// stride, overwrite a value another tensor still shares or ask for an
// absurd allocation; deserialize must reject every one with a typed error
// before any tensor is built. The MLP has only dense layers; the convnet
// adds conv filters, pooling and reshapes.
class CorruptLiteModel : public ::testing::TestWithParam<bool> {};

TEST_P(CorruptLiteModel, IsRejected) {
  const ml::Graph g = GetParam() ? ml::mnist_convnet(3) : ml::mnist_mlp(8, 3);
  ml::Session s(g);
  const Bytes blob =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs")
          .serialize();
  const LiteLayout layout = lite_layout(blob);
  ASSERT_FALSE(layout.weight_offset.empty());
  ASSERT_FALSE(layout.op_index.empty());
  ASSERT_EQ(layout.target_dim.empty(), !GetParam());
  ASSERT_EQ(layout.stride.empty(), !GetParam());
  ASSERT_EQ(layout.n_weights + 8 + layout.arena * 4, blob.size());
  {
    const auto model = ml::lite::FlatModel::deserialize(blob);
    ml::lite::LiteInterpreter interp(model);
    EXPECT_EQ(interp.invoke(ml::synthetic_mnist(1, 5).sample(0)).size(), 10);
  }

  std::vector<std::pair<std::string, Bytes>> corrupt;
  const auto with_u32 = [&](const std::string& what, std::size_t pos,
                            std::uint32_t v) {
    Bytes b = blob;
    crypto::store_be32(b.data() + pos, v);
    corrupt.emplace_back(what, std::move(b));
  };
  const auto with_i64 = [&](const std::string& what, std::size_t pos,
                            std::int64_t v) {
    Bytes b = blob;
    crypto::store_be64(b.data() + pos, static_cast<std::uint64_t>(v));
    corrupt.emplace_back(what, std::move(b));
  };
  for (const std::size_t pos : layout.op_index) {
    with_u32("op index = n_tensors", pos, layout.n_tensors);
    with_u32("op index = 2^31", pos, 0x80000000u);
    with_u32("op index = 2^32-1", pos, 0xFFFFFFFFu);
  }
  with_u32("model input index", layout.model_input, layout.n_tensors);
  const auto index_at = [&](std::size_t pos) {
    return crypto::load_be32(blob.data() + pos);
  };
  for (std::size_t i = 0; i < layout.op_output.size(); ++i) {
    const std::size_t out = layout.op_output[i];
    with_u32("op writes the model input", out, index_at(layout.model_input));
    with_u32("op writes a weight", out, layout.weight_index.back());
    if (i > 0) {
      with_u32("tensor written twice", out, index_at(layout.op_output[0]));
    }
  }
  with_u32("model output index", layout.model_output, 0xFFFFFFFFu);
  for (std::size_t i = 0; i < layout.weight_offset.size(); ++i) {
    const std::size_t off = layout.weight_offset[i];
    with_i64("offset past the arena", off, layout.arena + 1);
    with_i64("window overruns the arena", off, layout.arena - 1);
    with_i64("offset near int64 max", off, INT64_MAX - 4);
    with_i64("negative offset", off, -2);
    with_i64("huge dim", layout.first_dim[i], std::int64_t{1} << 62);
    with_i64("overflowing dim", layout.first_dim[i], INT64_MAX);
    with_i64("negative dim", layout.first_dim[i], -3);
  }
  for (const std::size_t pos : layout.target_dim) {
    with_i64("zero reshape dim", pos, 0);
    with_i64("negative reshape dim", pos, -2);
    with_i64("huge reshape dim", pos, INT64_MAX);
  }
  if (layout.target_dim.size() >= 2) {
    Bytes b = blob;
    crypto::store_be64(b.data() + layout.target_dim[0], ~std::uint64_t{0});
    crypto::store_be64(b.data() + layout.target_dim[1], ~std::uint64_t{0});
    corrupt.emplace_back("two inferred reshape dims", std::move(b));
  }
  for (std::size_t i = 0; i < layout.stride.size(); ++i) {
    with_i64("zero stride", layout.stride[i], 0);
    with_i64("negative stride", layout.stride[i], -1);
    with_i64("zero window", layout.window[i], 0);
    with_i64("negative window", layout.window[i], INT64_MIN);
  }
  if (GetParam()) {
    // The int8 path's MaxPool2D divides by the file's stride: a calibrated
    // convnet with a zero pooling stride must be refused at load.
    const auto float_model =
        ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
    const ml::Dataset d = ml::synthetic_mnist(4, 8);
    std::vector<ml::Tensor> samples;
    for (std::int64_t i = 0; i < 4; ++i) samples.push_back(d.sample(i));
    const Bytes calibrated = float_model.quantized(samples).serialize();
    const LiteLayout cl = lite_layout(calibrated);
    ASSERT_NE(cl.max_pool_stride, 0u);
    {
      const auto model = ml::lite::FlatModel::deserialize(calibrated);
      ml::lite::LiteInterpreter interp(model, nullptr,
                                       ml::kernels::KernelContext{},
                                       /*weight_streaming=*/false,
                                       /*int8_compute=*/true);
      EXPECT_EQ(interp.invoke(d.sample(0)).size(), 10);
    }
    Bytes b = calibrated;
    crypto::store_be64(b.data() + cl.max_pool_stride, 0);
    corrupt.emplace_back("calibrated max-pool stride 0", std::move(b));

    // Shapes that are well-formed on disk but do not fit the activations
    // they meet must fail at invoke, in the int8 interpreter as in the
    // float one, before any kernel sizes a buffer or a window from them:
    // reshape targets whose element count differs from the input's, and a
    // 29-wide max-pooling window over 28 columns, where (28 - 29) / 2 + 1
    // truncates to one output column (the later average pool is made 1×1,
    // so that only the max pool can refuse the file).
    ASSERT_EQ(cl.last_target.size(), 2u);
    std::vector<std::pair<std::string, Bytes>> misfits;
    const std::vector<std::pair<std::int64_t, std::int64_t>> targets = {
        {1, 392}, {2, 784}, {-1, 785}, {-1, 783}};
    for (const auto& [d0, d1] : targets) {
      Bytes r = calibrated;
      crypto::store_be64(r.data() + cl.last_target[0],
                         static_cast<std::uint64_t>(d0));
      crypto::store_be64(r.data() + cl.last_target[1],
                         static_cast<std::uint64_t>(d1));
      misfits.emplace_back("reshape: element count mismatch", std::move(r));
    }
    Bytes wide = calibrated;
    ASSERT_NE(cl.avg_pool_stride, 0u);
    crypto::store_be64(wide.data() + cl.max_pool_stride + 8, 29);  // window
    crypto::store_be64(wide.data() + cl.avg_pool_stride, 1);
    crypto::store_be64(wide.data() + cl.avg_pool_stride + 8, 1);
    misfits.emplace_back("pool2d: window larger than input", std::move(wide));
    // Weights that no longer fit their consumers: the dense layer's 784 input
    // rows halved, and the second filter's 8 input channels halved. Both
    // windows shrink, so they still pass the arena checks at load.
    for (const std::size_t dims : cl.first_dim) {
      const auto dim = [&](int i) {
        return static_cast<std::int64_t>(
            crypto::load_be64(calibrated.data() + dims + 8 * i));
      };
      if (dim(0) == 784) {
        Bytes r = calibrated;
        crypto::store_be64(r.data() + dims, 392);
        misfits.emplace_back("matmul: inner dimensions do not match",
                             std::move(r));
      } else if (dim(0) == 3 && dim(2) == 8) {
        Bytes r = calibrated;
        crypto::store_be64(r.data() + dims + 16, 4);
        misfits.emplace_back("conv2d: filter channel mismatch", std::move(r));
      }
    }
    ASSERT_EQ(misfits.size(), targets.size() + 3);
    for (const auto& [message, bytes] : misfits) {
      const auto model = ml::lite::FlatModel::deserialize(bytes);
      for (const bool int8 : {true, false}) {
        ml::lite::LiteInterpreter interp(model, nullptr,
                                         ml::kernels::KernelContext{},
                                         /*weight_streaming=*/false, int8);
        try {
          (void)interp.invoke(d.sample(0));
          ADD_FAILURE() << message << " not raised, int8=" << int8;
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(std::string(e.what()), message) << "int8=" << int8;
        }
      }
    }
  }
  with_u32("huge tensor count", 9, 0xFFFFFFFFu);
  with_i64("negative arena size", layout.n_weights, -1);
  with_i64("huge arena size", layout.n_weights, std::int64_t{1} << 61);

  for (const auto& [what, bytes] : corrupt) {
    EXPECT_THROW((void)ml::lite::FlatModel::deserialize(bytes),
                 std::runtime_error)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(MlpAndConvnet, CorruptLiteModel,
                         ::testing::Bool());

TEST(SerializeProperty, TensorMapRoundTripRandom) {
  crypto::HmacDrbg rng(to_bytes("tmap"));
  for (int trial = 0; trial < 10; ++trial) {
    std::map<std::string, ml::Tensor> original;
    const auto count = 1 + rng.uniform(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::int64_t rows = 1 + static_cast<std::int64_t>(rng.uniform(5));
      const std::int64_t cols = 1 + static_cast<std::int64_t>(rng.uniform(7));
      ml::Tensor t({rows, cols});
      for (std::int64_t j = 0; j < t.size(); ++j) {
        t.at(j) = static_cast<float>(rng.uniform(1000)) / 100.0f - 5.0f;
      }
      original.emplace("tensor-" + std::to_string(i), std::move(t));
    }
    const auto restored =
        ml::deserialize_tensor_map(ml::serialize_tensor_map(original));
    ASSERT_EQ(restored, original);
  }
}

// ---------------------------------------------------------------------------
// ML parity sweeps
// ---------------------------------------------------------------------------

class MlpShapeSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::uint64_t>> {
};

TEST_P(MlpShapeSweep, LiteMatchesSessionEverywhere) {
  const auto [hidden, seed] = GetParam();
  ml::Graph g = ml::mnist_mlp(hidden, seed);
  ml::Session session(g);
  const ml::Dataset d = ml::synthetic_mnist(60, seed + 100);
  for (int step = 0; step < 3; ++step) {
    session.train_step("loss", d.batch_feeds(0, 60), 0.1f);
  }
  const auto model = ml::lite::FlatModel::from_frozen(
      ml::freeze(g, session), "input", "probs");
  ml::lite::LiteInterpreter interp(model);
  for (std::int64_t i = 0; i < 3; ++i) {
    const ml::Tensor expected =
        session.run1("probs", {{"input", d.sample(i)}});
    const ml::Tensor got = interp.invoke(d.sample(i));
    ASSERT_EQ(got.shape(), expected.shape());
    for (std::int64_t j = 0; j < got.size(); ++j) {
      ASSERT_NEAR(got.at(j), expected.at(j), 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MlpShapeSweep,
                         ::testing::Values(std::pair{8l, 1ull},
                                           std::pair{16l, 2ull},
                                           std::pair{33l, 3ull},
                                           std::pair{64l, 4ull},
                                           std::pair{100l, 5ull}));

TEST(QuantizationProperty, WeightErrorBoundedByScale) {
  ml::Graph g = ml::mnist_mlp(24, 9);
  ml::Session s(g);
  const auto float_model =
      ml::lite::FlatModel::from_frozen(ml::freeze(g, s), "input", "probs");
  const auto int8_model = float_model.quantized();
  ASSERT_TRUE(int8_model.is_quantized());
  EXPECT_EQ(int8_model.weight_bytes() * 4, float_model.weight_bytes());

  // Reconstructed weights are within scale/2 of the originals.
  for (std::size_t t = 0; t < float_model.tensors().size(); ++t) {
    const auto& fdesc = float_model.tensors()[t];
    const auto& qdesc = int8_model.tensors()[t];
    if (!fdesc.is_weight()) continue;
    const std::int64_t n = ml::num_elements(fdesc.shape);
    for (std::int64_t i = 0; i < n; ++i) {
      const float original = float_model.weights()[fdesc.weight_offset + i];
      const float restored =
          static_cast<float>(int8_model.qweights()[qdesc.weight_offset + i]) *
          qdesc.quant_scale;
      ASSERT_NEAR(original, restored, qdesc.quant_scale / 2 + 1e-7f);
    }
  }
}

TEST(QuantizationProperty, PredictionsMostlyAgree) {
  ml::Graph g = ml::mnist_mlp(32, 5);
  ml::Session session(g);
  const ml::Dataset d = ml::synthetic_mnist(220, 6);
  for (int e = 0; e < 5; ++e) {
    session.train_step("loss", d.batch_feeds(0, 200), 0.1f);
  }
  const auto float_model = ml::lite::FlatModel::from_frozen(
      ml::freeze(g, session), "input", "probs");
  const auto int8_model = float_model.quantized();
  ml::lite::LiteInterpreter float_interp(float_model);
  ml::lite::LiteInterpreter int8_interp(int8_model);
  int agree = 0;
  const int total = 20;
  for (int i = 0; i < total; ++i) {
    const auto argmax = [](const ml::Tensor& t) {
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < t.size(); ++j) {
        if (t.at(j) > t.at(best)) best = j;
      }
      return best;
    };
    if (argmax(float_interp.invoke(d.sample(200 + i % 20))) ==
        argmax(int8_interp.invoke(d.sample(200 + i % 20)))) {
      ++agree;
    }
  }
  EXPECT_GE(agree, total - 2) << "int8 must rarely change the decision";
}

// ---------------------------------------------------------------------------
// Scheduler conservation properties
// ---------------------------------------------------------------------------

TEST(SchedulerProperty, AsyncBoundedByComputeAndSync) {
  crypto::HmacDrbg rng(to_bytes("sched"));
  for (int trial = 0; trial < 8; ++trial) {
    tee::CostModel model;
    tee::Platform p_async("n", tee::TeeMode::Hardware, model);
    tee::Platform p_sync("n", tee::TeeMode::Hardware, model);
    auto e_async = p_async.launch_enclave({.name = "s", .binary_bytes = 4096});
    auto e_sync = p_sync.launch_enclave({.name = "s", .binary_bytes = 4096});
    runtime::UserScheduler sched_async(*e_async, true);
    runtime::UserScheduler sched_sync(*e_sync, false);

    double total_flops = 0;
    const auto tasks = 2 + rng.uniform(5);
    for (std::uint64_t t = 0; t < tasks; ++t) {
      runtime::TaskSpec spec{.name = "t"};
      const auto steps = 1 + rng.uniform(30);
      for (std::uint64_t i = 0; i < steps; ++i) {
        if (rng.uniform(2) == 0) {
          const double flops = static_cast<double>(1000 + rng.uniform(50000));
          total_flops += flops;
          spec.steps.push_back(runtime::ComputeStep{flops});
        } else {
          spec.steps.push_back(
              runtime::SyscallStep{.bytes = rng.uniform(2048)});
        }
      }
      runtime::TaskSpec copy = spec;
      sched_async.spawn(std::move(spec));
      sched_sync.spawn(std::move(copy));
    }
    const auto t_async = sched_async.run();
    const auto t_sync = sched_sync.run();
    // Time is at least the pure compute time and async never loses to sync.
    EXPECT_GE(t_async, model.compute_ns(total_flops));
    EXPECT_LE(t_async, t_sync);
  }
}

// ---------------------------------------------------------------------------
// Dataset properties
// ---------------------------------------------------------------------------

class DatasetSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DatasetSweep, WellFormedAtAnySize) {
  const auto n = GetParam();
  const ml::Dataset d = ml::synthetic_mnist(n, 3);
  ASSERT_EQ(d.size(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto label = d.label_of(i);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, d.num_classes);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DatasetSweep,
                         ::testing::Values(1, 2, 10, 99, 256));

}  // namespace
}  // namespace stf
