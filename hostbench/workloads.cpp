#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "cas/cas_server.h"
#include "core/loadgen.h"
#include "core/securetf.h"
#include "core/serving.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "distributed/training.h"
#include "faults/fault_plane.h"
#include "ml/dataset.h"
#include "ml/kernels.h"
#include "ml/lite/flat_model.h"
#include "ml/models.h"
#include "ml/serialize.h"
#include "ml/session.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "runtime/secure_channel.h"
#include "tee/platform.h"

#include "calibration.h"

namespace hostbench {
namespace {

using namespace stf;

// --- small helpers -----------------------------------------------------------

/// Passes a run makes at least, however short --seconds is.
constexpr int kMinPasses = 3;
/// Set-ups timed per run (extra ones are discarded) so that setup_s is a
/// median of several samples even when a pass is long.
constexpr std::size_t kMinSetups = 7;

/// Linear-interpolation quantile (the "inclusive" rule), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Runs `fn` inside a span and returns its host seconds.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& fn, std::int64_t id = -1) {
  ScopedSpan span(tracer, name, id);
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Calibration samples around the branch-bound phases of a run
/// (calibration.h).
class SpeedProbe {
 public:
  explicit SpeedProbe(Tracer& tracer) : tracer_(tracer) {}

  /// Samples right before a measured phase.
  void start() { last_ms_ = take(); }
  /// Samples right after a phase; returns the factor that scales the
  /// phase's host time to the reference speed. The sample also starts the
  /// next phase.
  double next() {
    const double before = last_ms_;
    last_ms_ = take();
    return 2.0 * kReferenceCalibrationMs / (before + last_ms_);
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  double take() {
    samples_.push_back(calibration_ms(tracer_));
    return samples_.back();
  }

  Tracer& tracer_;
  double last_ms_ = 0;
  std::vector<double> samples_;
};

/// Samples of one end-to-end quantity, as measured and scaled to the
/// reference speed.
struct Samples {
  std::vector<double> wall, scaled;
  void add(double wall_s, double factor) {
    wall.push_back(wall_s);
    scaled.push_back(wall_s * factor);
  }
};

struct CounterValue {
  std::uint64_t value = 0;
  const char* unit = "count";  ///< the registry's unit of the counter
};
using Counters = std::map<std::string, CounterValue>;

Counters snapshot_counters() {
  Counters c;
  obs::Registry::global().visit_counters(
      [&](const std::string& name, const obs::MetricInfo& info,
          const obs::Counter& counter) {
        c[name] = CounterValue{counter.value(), obs::to_string(info.unit)};
      });
  return c;
}

double delta(const Counters& after, const Counters& before,
             const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return static_cast<double>(a->second.value -
                             (b == before.end() ? 0 : b->second.value));
}

void put(Result& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics[name] = Metric{value, unit};
}

/// An end-to-end metric `<stem>_<unit>` (scaled) and its as-measured twin
/// `<stem>_wall_<unit>`, medians of the samples times `scale`.
void put_e2e(Result& r, const std::string& stem, const std::string& unit,
             const Samples& samples, double scale = 1.0) {
  put(r, stem + "_" + unit, median(samples.scaled) * scale, unit);
  put(r, stem + "_wall_" + unit, median(samples.wall) * scale, unit);
}

/// Median calibration sample of the run.
void put_speed(Result& r, const SpeedProbe& probe) {
  put(r, "bench.calibration_ms", median(probe.samples()), "ms");
}

/// Median memory calibration sample of the run.
void put_speed(Result& r, const MemoryProbe& memory) {
  put(r, "bench.memory_calibration_ms", median(memory.samples()), "ms");
}

/// Registry counter deltas under their registry names and units.
void put_counts(Result& r, const Counters& after, const Counters& before,
                const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const auto it = after.find(name);
    put(r, name, delta(after, before, name),
        it == after.end() ? "count" : it->second.unit);
  }
}

void check(Result& r, const std::string& name, bool ok,
           const std::string& detail = "") {
  r.checks.push_back(Check{name, ok, detail});
}

/// The kernel context of kKernelThreads = 1: serial, on the caller.
const ml::kernels::KernelContext kSerialKernels{};

bool same_tensor(const ml::Tensor& a, const ml::Tensor& b) {
  return a.shape() == b.shape() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

const std::vector<std::string> kEpcCounters = {
    "tee.epc.accesses", "tee.epc.faults", "tee.epc.evictions",
    "tee.epc.prefetches"};

// --- crypto rates ------------------------------------------------------------

/// AES-GCM, SHA-256, HMAC-DRBG and X25519 rates at the workload's record
/// size, through the crypto module's public API.
void crypto_rates(Result& r, Tracer& tracer, std::size_t record_bytes,
                  std::uint64_t seed) {
  crypto::HmacDrbg rng(crypto::to_bytes("hostbench-crypto-" +
                                        std::to_string(seed)));
  const crypto::AesGcm gcm(rng.generate(32));
  const crypto::Bytes nonce = rng.generate(12);
  const crypto::Bytes record = rng.generate(record_bytes);
  constexpr std::size_t kVolume = 4u << 20;
  const std::size_t reps = std::max<std::size_t>(1, kVolume / record_bytes);
  const double mb = static_cast<double>(reps * record_bytes) / 1e6;

  crypto::Bytes sealed;
  const double seal_s = timed(tracer, "crypto.gcm_seal", [&] {
    for (std::size_t i = 0; i < reps; ++i) sealed = gcm.seal(nonce, {}, record);
  });
  bool opened_ok = true;
  const double open_s = timed(tracer, "crypto.gcm_open", [&] {
    for (std::size_t i = 0; i < reps; ++i) {
      const auto plain = gcm.open(nonce, {}, sealed);
      opened_ok = opened_ok && plain.has_value() && *plain == record;
    }
  });
  check(r, "crypto.gcm_round_trip", opened_ok);
  put(r, "crypto.gcm_seal_mb_s", mb / seal_s, "MB/s");
  put(r, "crypto.gcm_open_mb_s", mb / open_s, "MB/s");
  put(r, "crypto.gcm_record_bytes", static_cast<double>(record_bytes),
      "bytes");

  const crypto::Bytes bulk = rng.generate(kVolume);
  const double sha_s = timed(tracer, "crypto.sha256", [&] {
    for (int i = 0; i < 2; ++i) (void)crypto::Sha256::hash(bulk);
  });
  put(r, "crypto.sha256_mb_s", 2.0 * static_cast<double>(kVolume) / 1e6 / sha_s,
      "MB/s");

  constexpr std::size_t kDrbgBytes = 1u << 20;
  const double drbg_s = timed(tracer, "crypto.drbg_generate",
                              [&] { (void)rng.generate(kDrbgBytes); });
  put(r, "crypto.drbg_mb_s", static_cast<double>(kDrbgBytes) / 1e6 / drbg_s,
      "MB/s");

  constexpr int kScalarMults = 16;
  crypto::X25519::Key secret{};
  const crypto::Bytes secret_bytes = rng.generate(secret.size());
  std::copy(secret_bytes.begin(), secret_bytes.end(), secret.begin());
  const double x_s = timed(tracer, "crypto.x25519", [&] {
    for (int i = 0; i < kScalarMults; ++i) {
      secret = crypto::X25519::public_from_secret(secret);
    }
  });
  put(r, "crypto.x25519_ms", x_s * 1e3 / kScalarMults, "ms");
}

// --- GEMM replay -------------------------------------------------------------

struct GemmShape {
  std::int64_t k = 0, n = 0;
  std::int64_t weight_offset = 0;
};

/// The weight-side GEMMs of a Lite model: every MatMul whose right operand
/// is a weight tensor.
std::vector<GemmShape> lite_gemms(const ml::lite::FlatModel& model) {
  std::vector<GemmShape> shapes;
  for (const ml::lite::LiteOp& op : model.ops()) {
    if (op.type != ml::OpType::MatMul || op.inputs.size() < 2) continue;
    const auto& w = model.tensors()[static_cast<std::size_t>(op.inputs[1])];
    if (!w.is_weight() || w.shape.size() != 2) continue;
    shapes.push_back(GemmShape{w.shape[0], w.shape[1], w.weight_offset});
  }
  return shapes;
}

/// Bytes of float weight tensors one invoke copies into fresh tensors.
double materialized_weight_bytes(const ml::lite::FlatModel& model) {
  std::vector<bool> used(model.tensors().size(), false);
  for (const ml::lite::LiteOp& op : model.ops()) {
    for (const std::int32_t idx : op.inputs) {
      used[static_cast<std::size_t>(idx)] = true;
    }
  }
  double bytes = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    const auto& d = model.tensors()[i];
    if (used[i] && d.is_weight()) {
      bytes += static_cast<double>(ml::num_elements(d.shape)) * sizeof(float);
    }
  }
  return bytes;
}

/// Replays the model's weight GEMMs at batch `m`; returns the flops done.
double replay_lite_gemms(const ml::kernels::KernelContext& ctx,
                         const ml::lite::FlatModel& model,
                         const std::vector<GemmShape>& shapes, std::int64_t m,
                         bool int8) {
  double flops = 0;
  for (const GemmShape& g : shapes) {
    const auto a_n = static_cast<std::size_t>(m * g.k);
    const auto c_n = static_cast<std::size_t>(m * g.n);
    if (int8) {
      const std::vector<std::int8_t> a(a_n, 3);
      std::vector<std::int8_t> c(c_n);
      ml::kernels::gemm_s8(ctx, m, g.k, g.n, a.data(),
                           model.qweights().data() + g.weight_offset, 0.01f,
                           c.data());
    } else {
      const std::vector<float> a(a_n, 0.5f);
      std::vector<float> c(c_n);
      ml::kernels::gemm(ctx, m, g.k, g.n, a.data(),
                        model.weights().data() + g.weight_offset, c.data());
    }
    flops += 2.0 * static_cast<double>(m) * static_cast<double>(g.k) *
             static_cast<double>(g.n);
  }
  return flops;
}

// --- serve / serve_failover --------------------------------------------------

constexpr std::int64_t kServeInputDim = 1024;
constexpr std::uint64_t kServeModelBytes = 8ull << 20;
constexpr std::uint64_t kServeEpcBytes = 6ull << 20;
constexpr unsigned kServeNodes = 2;
constexpr unsigned kServeLanes = 2;
constexpr std::int64_t kServeMaxBatch = 8;

struct ServeShape {
  bool failover = false;
  std::int64_t requests = 0;
  /// Offered load as a multiple of the fleet's unbatched capacity.
  double load_factor = 0;
};

constexpr ServeShape kServe{false, 2000, 1.6};
constexpr ServeShape kServeFailover{true, 6000, 1.0};

core::ServingConfig serving_config(const ServeShape& shape) {
  core::ServingConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.model.epc_bytes = kServeEpcBytes;
  cfg.threads = kServeLanes;
  cfg.physical_cores = 4;
  cfg.per_thread_scratch = 1ull << 20;
  cfg.kernel_threads = kKernelThreads;
  cfg.inference.container_name = "hostbench-serve";
  cfg.inference.binary_bytes = 1ull << 20;
  cfg.inference.syscalls_per_inference = 16;
  cfg.inference.weight_streaming = true;
  cfg.inference.int8_compute = shape.failover;
  return cfg;
}

/// One pass's inputs and fleet. Not movable: the fleet and the fault plane
/// refer to the model and to each other.
struct ServeSetup {
  ml::lite::FlatModel model;
  core::ServingConfig config;
  double per_image_s = 0;
  double offered_rps = 0;
  double generate_s = 0;
  core::LoadTrace trace;
  core::BatchWindowConfig window;
  std::unique_ptr<faults::FaultPlane> plane;
  std::unique_ptr<core::ServingFleet> fleet;
};

std::unique_ptr<ServeSetup> serve_setup(const ServeShape& shape,
                                        const Options& o, Tracer& tracer) {
  auto s = std::make_unique<ServeSetup>();
  timed(tracer, "ml.models.build", [&] {
    const ml::Graph graph = ml::sized_classifier(
        "serve", kServeModelBytes, kServeInputDim, 10, o.seed);
    ml::Session session(graph);
    s->model = ml::lite::FlatModel::from_frozen(ml::freeze(graph, session),
                                                "input", "probs");
  });
  if (shape.failover) {
    timed(tracer, "ml.lite.quantize", [&] {
      core::LoadGenConfig cal;
      cal.seed = o.seed + 1;
      cal.request_count = 8;
      cal.input_dim = kServeInputDim;
      cal.input_pool = 8;
      s->model = s->model.quantized(core::generate_load(cal).images);
    });
  }
  s->config = serving_config(shape);
  timed(tracer, "core.serving.calibrate", [&] {
    core::ServingNode probe(s->model, s->config);
    const ml::Tensor image(ml::Shape{1, kServeInputDim});
    const std::int64_t count = static_cast<std::int64_t>(kServeLanes) * 8;
    s->per_image_s = probe.estimate_stream_seconds(image, count) /
                     static_cast<double>(count);
  });
  s->offered_rps =
      shape.load_factor * static_cast<double>(kServeNodes) / s->per_image_s;

  core::LoadGenConfig load;
  load.seed = o.seed;
  load.process = shape.failover ? core::ArrivalProcess::Bursty
                                : core::ArrivalProcess::Poisson;
  load.offered_rps = s->offered_rps;
  load.request_count = shape.requests;
  load.input_dim = kServeInputDim;
  load.input_pool = 16;
  s->generate_s = timed(tracer, "core.loadgen.generate_load",
                        [&] { s->trace = core::generate_load(load); });

  s->window.max_batch = kServeMaxBatch;
  s->window.max_wait_s = 2.0 * s->per_image_s;
  // The failover workload keeps every request (no admission bound) so that
  // crash losses are the only failure mode and retries recover them.
  s->window.queue_capacity = shape.failover ? 0 : 64;

  timed(tracer, "core.serving.fleet_init", [&] {
    s->fleet = std::make_unique<core::ServingFleet>(s->model, s->config,
                                                    kServeNodes);
    if (!shape.failover) return;
    const double trace_s =
        static_cast<double>(shape.requests) / s->offered_rps;
    const auto at = [&](double f) {
      return static_cast<std::uint64_t>(std::llround(f * trace_s * 1e9));
    };
    core::FleetResilienceConfig res;
    res.failure_threshold = 1;
    res.detect_timeout_seconds = 0.002 * trace_s;
    res.cooldown_seconds = 0.03 * trace_s;
    s->fleet->configure_resilience(res);
    s->plane = std::make_unique<faults::FaultPlane>(o.seed);
    // Staggered windows: each node is down once, while the other serves.
    s->plane->schedule_crash(1, at(0.30), at(0.50));
    s->plane->schedule_crash(0, at(0.55), at(0.75));
    s->fleet->attach_fault_plane(*s->plane);
    core::RequestRetryPolicy retry;
    retry.max_retries = 3;
    retry.jitter_seed = o.seed;
    s->fleet->configure_retry(retry);
    core::HedgePolicy hedge;
    hedge.enabled = true;
    hedge.hedge_delay_s = s->per_image_s;
    s->fleet->configure_hedging(hedge);
  });
  return s;
}

/// The virtual-time facts of a serve pass that must repeat exactly.
struct ServeVirtual {
  std::uint64_t p99_ns = 0;
  std::int64_t goodput = 0;
  double throughput_rps = 0;
  bool operator==(const ServeVirtual&) const = default;
};

ServeVirtual virtual_of(const core::TrafficSummary& s) {
  return ServeVirtual{s.p99_ns, s.goodput(), s.throughput_rps()};
}

/// Exactly one terminal outcome per request id, and the status counts add
/// up to the offered requests.
std::string outcome_problem(const std::vector<core::RequestOutcome>& outcomes,
                            const core::TrafficSummary& s,
                            std::int64_t requests) {
  if (static_cast<std::int64_t>(outcomes.size()) != requests) {
    return "outcomes " + std::to_string(outcomes.size()) + " != requests " +
           std::to_string(requests);
  }
  std::vector<int> seen(static_cast<std::size_t>(requests), 0);
  for (const core::RequestOutcome& o : outcomes) {
    if (o.id < 0 || o.id >= requests) return "outcome id out of range";
    if (++seen[static_cast<std::size_t>(o.id)] != 1) {
      return "request " + std::to_string(o.id) + " has two outcomes";
    }
  }
  if (s.offered != s.completed + s.retried + s.shed_queue_full +
                       s.shed_expired + s.failed_node_down) {
    return "offered != sum of statuses";
  }
  return "";
}

struct BatchRecord {
  std::int64_t node = 0;
  std::uint64_t dispatch_ns = 0;
  std::vector<const ml::Tensor*> inputs;
};

/// Batch compositions of a serve pass: requests that completed on one node
/// with the same dispatch and completion time rode in one batch (split by
/// the recorded batch size if two lanes coincide). Ordered as the fleet ran
/// them: the fast path serves each node's partition in turn, the failover
/// loop interleaves the nodes in dispatch order.
std::vector<BatchRecord> batches_of(
    const std::vector<core::RequestOutcome>& outcomes,
    const std::vector<core::Request>& requests, bool node_major) {
  std::map<std::int64_t, const core::Request*> by_id;
  for (const core::Request& r : requests) by_id[r.id] = &r;
  std::map<std::tuple<std::uint64_t, std::int64_t, std::uint64_t>,
           std::vector<const core::RequestOutcome*>>
      groups;
  for (const core::RequestOutcome& o : outcomes) {
    if (o.completion_ns == 0 || o.node < 0) continue;
    groups[{o.dispatch_ns, o.node, o.completion_ns}].push_back(&o);
  }
  std::vector<BatchRecord> batches;
  for (const auto& [key, members] : groups) {
    const std::size_t size = static_cast<std::size_t>(
        std::max<std::int64_t>(1, members.front()->batch_size));
    for (std::size_t i = 0; i < members.size(); i += size) {
      BatchRecord b;
      b.dispatch_ns = std::get<0>(key);
      b.node = std::get<1>(key);
      for (std::size_t j = i; j < std::min(members.size(), i + size); ++j) {
        b.inputs.push_back(by_id.at(members[j]->id)->input);
      }
      batches.push_back(std::move(b));
    }
  }
  if (node_major) {
    std::stable_sort(batches.begin(), batches.end(),
                     [](const BatchRecord& x, const BatchRecord& y) {
                       return x.node < y.node;
                     });
  }
  return batches;
}

/// Replays a pass's batches through ServingNode::serve_batch on fresh nodes
/// (the serving layer below its event loop), InferenceService::classify_batch,
/// the env-less LiteInterpreter::invoke_batch and the model's GEMMs.
void replay_serving(Result& r, Tracer& tracer, const ServeSetup& s,
                    const std::vector<core::RequestOutcome>& outcomes,
                    double serve_trace_s, bool failover) {
  ScopedSpan root(tracer, "bench.replay_serving");
  const std::vector<BatchRecord> batches =
      batches_of(outcomes, s.trace.requests, !failover);
  const auto node_of = [](const BatchRecord& b) {
    return static_cast<std::size_t>(b.node) % kServeNodes;
  };

  core::InferenceOptions options = s.config.inference;
  options.kernels = kSerialKernels;
  std::vector<std::unique_ptr<core::ServingNode>> nodes;
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  std::vector<std::unique_ptr<core::InferenceService>> services;
  std::vector<double> launch_s;
  timed(tracer, "core.serving.node_init", [&] {
    for (unsigned n = 0; n < kServeNodes; ++n) {
      nodes.push_back(
          std::make_unique<core::ServingNode>(s.model, s.config, n));
    }
  });
  for (unsigned n = 0; n < kServeNodes; ++n) {
    platforms.push_back(std::make_unique<tee::Platform>(
        "replay-node", s.config.mode, s.config.model, s.config.threads));
    launch_s.push_back(timed(tracer, "core.inference.launch", [&] {
      services.push_back(std::make_unique<core::InferenceService>(
          *platforms.back(), s.model, options));
    }));
  }
  ml::lite::LiteInterpreter interpreter(s.model, nullptr, kSerialKernels,
                                        false, failover);
  const std::vector<GemmShape> gemms = lite_gemms(s.model);

  // Each batch goes through every layer back to back, so that host-speed
  // drift during the replay cancels in the per-layer differences.
  double batch_service_s = 0, classify_s = 0, invoke_s = 0, gemm_s = 0;
  double flops = 0;
  bool identical = true;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const BatchRecord& batch = batches[b];
    const auto id = static_cast<std::int64_t>(b);
    batch_service_s += timed(
        tracer, "core.serving.serve_batch",
        [&] {
          (void)nodes[node_of(batch)]->serve_batch(batch.inputs,
                                                   batch.dispatch_ns);
        },
        id);
    std::vector<ml::Tensor> served, direct;
    classify_s += timed(
        tracer, "core.inference.classify_batch",
        [&] {
          served = services[node_of(batch)]->classify_batch(batch.inputs);
        },
        id);
    invoke_s += timed(
        tracer, "ml.lite.invoke_batch",
        [&] { direct = interpreter.invoke_batch(batch.inputs); }, id);
    gemm_s += timed(
        tracer, "ml.kernels.gemm",
        [&] {
          flops += replay_lite_gemms(
              kSerialKernels, s.model, gemms,
              static_cast<std::int64_t>(batch.inputs.size()), failover);
        },
        id);
    identical = identical && served.size() == direct.size();
    for (std::size_t i = 0; identical && i < direct.size(); ++i) {
      identical = same_tensor(served[i], direct[i]);
    }
  }
  check(r, "serving.classify_batch_matches_envless_invoke", identical);

  put(r, "core.serving.batch_service_s", batch_service_s, "s");
  put(r, "core.serving.self_s", serve_trace_s - batch_service_s, "s");
  put(r, "core.inference.classify_batch_s", classify_s, "s");
  put(r, "core.inference.container_s", classify_s - invoke_s, "s");
  put(r, "core.inference.launch_s", median(launch_s), "s");
  put(r, "ml.lite.invoke_s", invoke_s, "s");
  put(r, "ml.lite.glue_s", invoke_s - gemm_s, "s");
  put(r, failover ? "ml.kernels.gemm_s8_s" : "ml.kernels.gemm_s", gemm_s, "s");
  put(r, "ml.kernels.gflops", flops / gemm_s / 1e9, "GFLOP/s");
  put(r, "ml.lite.weight_bytes_materialized",
      failover ? 0.0
               : materialized_weight_bytes(s.model) *
                     static_cast<double>(batches.size()),
      "bytes");
  put(r, "bench.replayed_batches", static_cast<double>(batches.size()),
      "count");
}

void set_obs(bool on) {
  obs::set_tracing_enabled(on);
  obs::set_profiling_enabled(on);
  obs::Timeline::global().set_enabled(on);
  obs::SpanTracer::global().reset();
  obs::Timeline::global().reset();
}

/// serve_trace host time with tracing, profiling and the timeline on versus
/// off, alternating; the virtual-time results must not move.
void telemetry_overhead(Result& r, Tracer& tracer, const ServeShape& shape,
                        const Options& o) {
  ScopedSpan root(tracer, "bench.telemetry_probe");
  std::vector<double> on_s, off_s;
  std::vector<ServeVirtual> on_v, off_v;
  for (int rep = 0; rep < 3; ++rep) {
    for (const bool on : {false, true}) {
      const auto s = serve_setup(shape, o, tracer);
      set_obs(on);
      std::vector<core::RequestOutcome> outcomes;
      const double t = timed(
          tracer, "core.serving.serve_trace",
          [&] {
            outcomes = s->fleet->serve_trace(s->trace.requests, s->window);
          },
          rep);
      set_obs(false);
      (on ? on_s : off_s).push_back(t);
      (on ? on_v : off_v).push_back(virtual_of(core::summarize(outcomes)));
    }
  }
  put(r, "obs.telemetry_overhead_pct",
      (median(on_s) / median(off_s) - 1.0) * 100.0, "%");
  check(r, "obs.virtual_metrics_unchanged_by_telemetry", on_v == off_v);
}

Result run_serve(const ServeShape& shape, const Options& o, Tracer& tracer) {
  Result r;
  SpeedProbe probe(tracer);
  MemoryProbe memory;
  Samples setup, serve, per_request;
  std::vector<double> generate_s;
  std::string fingerprint;
  bool same_fingerprint = true, same_virtual = true;
  std::string outcome_error;
  ServeVirtual first_virtual;
  core::TrafficSummary first_summary;
  Counters before, after;
  std::unique_ptr<ServeSetup> last;
  std::vector<core::RequestOutcome> last_outcomes;

  const auto start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || seconds_between(start, Clock::now()) < o.seconds;
       ++pass) {
    ScopedSpan pass_span(tracer, "bench.pass", pass);
    std::unique_ptr<ServeSetup> s;
    probe.start();
    setup.add(timed(tracer, "bench.setup",
                    [&] { s = serve_setup(shape, o, tracer); }, pass),
              probe.next());
    generate_s.push_back(s->generate_s);

    const Counters c0 = snapshot_counters();
    const double memory_before_ms = memory.sample_ms(tracer);
    std::vector<core::RequestOutcome> outcomes;
    const double t = timed(
        tracer, "core.serving.serve_trace",
        [&] { outcomes = s->fleet->serve_trace(s->trace.requests, s->window); },
        pass);
    const Counters c1 = snapshot_counters();
    // serve_trace is scaled by the memory calibration (calibration.h).
    const double factor = 2.0 * kReferenceMemoryMs /
                          (memory_before_ms + memory.sample_ms(tracer));
    serve.add(t, factor);
    per_request.add(t / static_cast<double>(outcomes.size()), factor);

    ScopedSpan check_span(tracer, "bench.check", pass);
    const core::TrafficSummary summary = core::summarize(outcomes);
    const std::string problem =
        outcome_problem(outcomes, summary, shape.requests);
    if (!problem.empty() && outcome_error.empty()) outcome_error = problem;
    const std::string fp = s->trace.fingerprint();
    r.attempted += summary.offered;
    r.failed += summary.shed_queue_full + summary.shed_expired +
                summary.failed_node_down;
    if (pass == 0) {
      fingerprint = fp;
      first_virtual = virtual_of(summary);
      first_summary = summary;
      before = c0;
      after = c1;
    } else {
      same_fingerprint = same_fingerprint && fp == fingerprint;
      same_virtual = same_virtual && virtual_of(summary) == first_virtual;
    }
    last = std::move(s);
    last_outcomes = std::move(outcomes);
  }
  while (setup.wall.size() < kMinSetups) {
    probe.start();
    setup.add(timed(tracer, "bench.setup",
                    [&] { (void)serve_setup(shape, o, tracer); }),
              probe.next());
  }
  check(r, "serving.one_terminal_outcome_per_request", outcome_error.empty(),
        outcome_error);
  check(r, "loadgen.fingerprint_repeats", same_fingerprint, fingerprint);
  check(r, "serving.virtual_results_repeat", same_virtual);

  put_e2e(r, "setup", "s", setup);
  put_e2e(r, "pass", "s", serve);
  put_e2e(r, "op", "ms", per_request, 1e3);
  put_speed(r, probe);
  put_speed(r, memory);
  put(r, "req_per_s", 1.0 / median(per_request.scaled), "req/s");
  put(r, "virtual_goodput_rps", first_summary.throughput_rps(),
      "virtual_req/s");
  put(r, "virtual_p99_ms", static_cast<double>(first_summary.p99_ns) / 1e6,
      "virtual_ms");
  put(r, "core.loadgen.generate_s", median(generate_s), "s");
  put(r, "core.serving.serve_trace_s", median(serve.wall), "s");
  put(r, "bench.passes", static_cast<double>(serve.wall.size()), "count");

  // Completed batches, single-request ones included (classify_batch routes
  // those through classify(), so core.inference.batches omits them); every
  // classified input, hedge copies and crash-lost batches included, is a
  // dispatched slot.
  const auto goodput = static_cast<double>(first_summary.goodput());
  const auto batches = static_cast<double>(
      batches_of(last_outcomes, last->trace.requests, false).size());
  const double slots = delta(after, before, "core.inference.requests");
  put(r, "core.serving.batches", batches, "count");
  put(r, "core.serving.mean_batch", batches > 0 ? goodput / batches : 0,
      "req/batch");
  put(r, "core.serving.useful_ratio", slots > 0 ? goodput / slots : 0,
      "ratio");
  put_counts(r, after, before,
             {"core.serving.shed_queue_full", "core.serving.shed_expired",
              "core.serving.failover.retries", "core.serving.failover.hedges",
              "core.serving.failover.failed_requests",
              "core.serving.failover.crash_detections",
              "core.inference.batches",
              "ml.kernels.gemm_calls",
              "ml.quant.int8_gemm_calls"});
  put_counts(r, after, before, kEpcCounters);

  r.config["requests"] = std::to_string(shape.requests);
  r.config["offered_rps"] = std::to_string(last->offered_rps);
  r.config["arrivals"] = shape.failover ? "bursty" : "poisson";
  r.config["model"] = shape.failover ? "sized_classifier 8MB int8" :
                                       "sized_classifier 8MB float";

  if (o.trace) {
    replay_serving(r, tracer, *last, last_outcomes, serve.wall.back(),
                   shape.failover);
    if (!shape.failover) telemetry_overhead(r, tracer, shape, o);
    crypto_rates(r, tracer, 64 * 1024, o.seed);
  }
  return r;
}

// --- train -------------------------------------------------------------------

constexpr unsigned kTrainWorkers = 3;
constexpr std::int64_t kTrainBatch = 100;
constexpr int kTrainRoundsPerPass = 4;
constexpr float kTrainLearningRate = 5e-4f;

distributed::ClusterConfig train_config(std::uint64_t seed) {
  // Figure 8's heaviest cell (bench_training's "secureTF HW (full)" row at
  // three workers).
  distributed::ClusterConfig cfg;
  cfg.mode = tee::TeeMode::Hardware;
  cfg.network_shield = true;
  cfg.num_workers = kTrainWorkers;
  cfg.batch_size = kTrainBatch;
  cfg.learning_rate = kTrainLearningRate;
  cfg.model.flops_per_second = 1.5e9;
  cfg.framework_scratch_bytes = 15ull << 20;
  cfg.model.page_fault_ns *= 4;
  cfg.model.page_load_ns *= 4;
  cfg.model.page_evict_ns *= 4;
  cfg.seed = seed;
  return cfg;
}

/// One round's worth of samples: each worker trains on its own batch.
constexpr std::int64_t kTrainSamples =
    kTrainBatch * static_cast<std::int64_t>(kTrainWorkers);

struct TrainSetup {
  ml::Graph graph;
  ml::Dataset data;
  std::unique_ptr<distributed::TrainingCluster> cluster;
};

std::unique_ptr<TrainSetup> train_setup(const Options& o, Tracer& tracer) {
  auto t = std::make_unique<TrainSetup>();
  timed(tracer, "ml.models.build",
        [&] { t->graph = ml::mnist_mlp(128, o.seed); });
  timed(tracer, "ml.dataset.synthetic_mnist",
        [&] { t->data = ml::synthetic_mnist(kTrainSamples, o.seed); });
  timed(tracer, "distributed.cluster_init", [&] {
    t->cluster = std::make_unique<distributed::TrainingCluster>(
        t->graph, train_config(o.seed));
  });
  return t;
}

/// A paired pass for the per-module split: a fresh cluster runs each
/// synchronous round, and right after it the same round's work is replayed
/// through ml::Session (each worker's gradients, the averaged update), a
/// SecureChannel pair (the parameter and gradient records) and the dense
/// layers' GEMMs. Pairing per round keeps host-speed drift out of the
/// differences.
void replay_training(Result& r, Tracer& tracer, const Options& o) {
  ScopedSpan root(tracer, "bench.replay_training");
  const std::unique_ptr<TrainSetup> setup = train_setup(o, tracer);
  ml::Session session(setup->graph);

  tee::CostModel model;
  tee::SimClock ps_clock, worker_clock;
  net::SimNetwork network;
  const net::NodeId ps = network.add_node("replay-ps", ps_clock);
  const net::NodeId worker = network.add_node("replay-worker", worker_clock);
  auto [to_worker, to_ps] = network.connect(ps, worker);
  crypto::HmacDrbg rng(crypto::to_bytes("hostbench-channel-" +
                                        std::to_string(o.seed)));
  runtime::ChannelHandshake ps_hs(runtime::ChannelHandshake::Role::Server, rng);
  runtime::ChannelHandshake w_hs(runtime::ChannelHandshake::Role::Client, rng);
  runtime::SecureChannel ps_ch =
      ps_hs.finish(w_hs.hello(), std::move(to_worker), model, ps_clock);
  runtime::SecureChannel w_ch =
      w_hs.finish(ps_hs.hello(), std::move(to_ps), model, worker_clock);

  double train_s = 0, gradients_s = 0, apply_s = 0, send_s = 0, recv_s = 0;
  double gemm_s = 0, flops = 0;
  bool delivered = true;
  std::size_t record_bytes = 0;
  const auto exchange = [&](runtime::SecureChannel& from,
                            runtime::SecureChannel& to,
                            const crypto::Bytes& record, std::int64_t id) {
    send_s += timed(tracer, "runtime.channel.send", [&] { from.send(record); },
                    id);
    std::optional<crypto::Bytes> got;
    recv_s += timed(tracer, "runtime.channel.recv", [&] { got = to.recv(); },
                    id);
    delivered = delivered && got.has_value() && *got == record;
  };
  // TrainingCluster's sessions run on the process-wide kernel pool.
  const auto& ctx = ml::kernels::KernelContext::shared();

  for (int round = 0; round < kTrainRoundsPerPass; ++round) {
    train_s += timed(
        tracer, "distributed.train",
        [&] { (void)setup->cluster->train(setup->data, kTrainSamples); },
        round);

    const crypto::Bytes params =
        ml::serialize_tensor_map(session.variable_snapshot());
    record_bytes = params.size();
    std::map<std::string, ml::Tensor> avg;
    for (unsigned w = 0; w < kTrainWorkers; ++w) {
      exchange(ps_ch, w_ch, params, round);
      std::map<std::string, ml::Tensor> grads;
      gradients_s += timed(
          tracer, "ml.session.gradients",
          [&] {
            grads = session.gradients(
                "loss", setup->data.batch_feeds(static_cast<std::int64_t>(w),
                                                kTrainBatch));
          },
          round);
      exchange(w_ch, ps_ch, ml::serialize_tensor_map(grads), round);
      for (auto& [name, g] : grads) {
        const auto it = avg.find(name);
        if (it == avg.end()) {
          avg.emplace(name, std::move(g));
        } else {
          for (std::int64_t i = 0; i < g.size(); ++i) {
            it->second.at(i) += g.at(i);
          }
        }
      }
    }
    apply_s += timed(
        tracer, "ml.session.apply_gradients",
        [&] { session.apply_gradients(avg, kTrainLearningRate); }, round);

    // Dense-layer GEMMs of the round's steps: forward x·W, weight gradient
    // xᵀ·dy and input gradient dy·Wᵀ for every 2-D variable, per worker.
    gemm_s += timed(
        tracer, "ml.kernels.gemm",
        [&] {
          for (unsigned w = 0; w < kTrainWorkers; ++w) {
            for (const auto& [name, var] : session.variable_snapshot()) {
              if (var.rank() != 2) continue;
              const std::int64_t k = var.dim(0), n = var.dim(1),
                                 m = kTrainBatch;
              const std::vector<float> x(static_cast<std::size_t>(m * k), 0.5f);
              const std::vector<float> dy(static_cast<std::size_t>(m * n),
                                          0.25f);
              std::vector<float> y(static_cast<std::size_t>(m * n));
              std::vector<float> dw(static_cast<std::size_t>(k * n));
              std::vector<float> dx(static_cast<std::size_t>(m * k));
              ml::kernels::gemm(ctx, m, k, n, x.data(), var.data(), y.data());
              ml::kernels::gemm_tn(ctx, k, m, n, x.data(), dy.data(),
                                   dw.data());
              ml::kernels::gemm_nt(ctx, m, n, k, dy.data(), var.data(),
                                   dx.data());
              flops += 6.0 * static_cast<double>(m * k * n);
            }
          }
        },
        round);
  }
  check(r, "channel.replayed_records_delivered", delivered);

  put(r, "distributed.train_s", train_s, "s");
  put(r, "distributed.self_s",
      train_s - gradients_s - apply_s - send_s - recv_s, "s");
  put(r, "ml.session.gradients_s", gradients_s, "s");
  put(r, "ml.session.apply_s", apply_s, "s");
  put(r, "runtime.channel.send_s", send_s, "s");
  put(r, "runtime.channel.recv_s", recv_s, "s");
  put(r, "ml.kernels.gemm_s", gemm_s, "s");
  put(r, "ml.kernels.gflops", flops / gemm_s / 1e9, "GFLOP/s");
  crypto_rates(r, tracer, record_bytes, o.seed);
}

Result run_train(const Options& o, Tracer& tracer) {
  Result r;
  SpeedProbe probe(tracer);
  Samples setup, pass_time, round_time;
  std::vector<double> first_virtual;
  bool same_virtual = true;
  std::string loss_problem;
  Counters before, after;

  const auto start = Clock::now();
  for (int pass = 0;
       pass < kMinPasses || seconds_between(start, Clock::now()) < o.seconds;
       ++pass) {
    ScopedSpan pass_span(tracer, "bench.pass", pass);
    std::unique_ptr<TrainSetup> t;
    probe.start();
    setup.add(timed(tracer, "bench.setup",
                    [&] { t = train_setup(o, tracer); }, pass),
              probe.next());

    const Counters c0 = snapshot_counters();
    std::vector<float> losses;
    std::vector<double> virtual_rounds, rounds;
    for (int round = 0; round < kTrainRoundsPerPass; ++round) {
      distributed::TrainStats stats;
      rounds.push_back(timed(
          tracer, "distributed.train",
          [&] { stats = t->cluster->train(t->data, kTrainSamples); }, round));
      losses.push_back(stats.final_loss);
      virtual_rounds.push_back(stats.seconds_per_round);
      r.attempted += 1;
      r.failed += static_cast<std::int64_t>(stats.lost_gradients);
    }
    const double factor = probe.next();
    const Counters c1 = snapshot_counters();
    pass_time.add(sum(rounds), factor);
    for (const double round_s : rounds) round_time.add(round_s, factor);

    for (const float loss : losses) {
      if (!std::isfinite(loss) && loss_problem.empty()) {
        loss_problem = "non-finite loss";
      }
    }
    if (!(losses.back() <= losses.front()) && loss_problem.empty()) {
      loss_problem = "final loss " + std::to_string(losses.back()) +
                     " above first round's " + std::to_string(losses.front());
    }
    if (pass == 0) {
      first_virtual = virtual_rounds;
      before = c0;
      after = c1;
    } else {
      same_virtual = same_virtual && virtual_rounds == first_virtual;
    }
  }
  while (setup.wall.size() < kMinSetups) {
    probe.start();
    setup.add(
        timed(tracer, "bench.setup", [&] { (void)train_setup(o, tracer); }),
        probe.next());
  }
  check(r, "train.loss_finite_and_not_rising", loss_problem.empty(),
        loss_problem);
  check(r, "train.virtual_rounds_repeat", same_virtual);

  put_e2e(r, "setup", "s", setup);
  put_e2e(r, "pass", "s", pass_time);
  put_e2e(r, "op", "ms", round_time, 1e3);
  put_speed(r, probe);
  put(r, "round_s", median(round_time.scaled), "s");
  put(r, "virtual_round_s", sum(first_virtual) /
                                static_cast<double>(first_virtual.size()),
      "virtual_s");
  put(r, "bench.passes", static_cast<double>(pass_time.wall.size()), "count");
  put_counts(r, after, before,
             {"distributed.rounds", "distributed.lost_gradients",
              "distributed.degraded_rounds", "runtime.channel.records_sent",
              "runtime.channel.bytes_sent", "net.messages_delivered",
              "net.bytes_sent", "ml.kernels.gemm_calls"});
  put_counts(r, after, before, kEpcCounters);

  r.config["workers"] = std::to_string(kTrainWorkers);
  r.config["batch"] = std::to_string(kTrainBatch);
  r.config["rounds_per_pass"] = std::to_string(kTrainRoundsPerPass);
  r.config["model"] = "mnist_mlp(128)";
  r.config["train_kernel_threads"] =
      std::to_string(ml::kernels::KernelContext::shared().threads);

  if (o.trace) {
    replay_training(r, tracer, o);
  }
  return r;
}

// --- cold_start --------------------------------------------------------------

constexpr std::uint64_t kColdModelBytes = 42ull << 20;
constexpr std::int64_t kColdInputDim = 3072;
/// Cold-start cycles a run (at least; more while time is left), and warm
/// classify calls after each cycle's first.
constexpr int kColdMinCycles = 10;
constexpr int kColdWarmCalls = 10;
/// Classify calls the traced run replays through the lower layers.
constexpr int kColdReplayCalls = 100;
constexpr std::int64_t kColdImagePool = 8;
constexpr const char* kColdPath = "/secure/densenet.stflite";

/// An attested deployment node holding the serialized model. Not movable:
/// the context and the CAS refer to the authority and the CAS host.
struct ColdSetup {
  crypto::Bytes model_bytes;
  std::vector<ml::Tensor> images;
  tee::ProvisioningAuthority authority;
  std::unique_ptr<tee::Platform> cas_host;
  std::unique_ptr<cas::CasServer> cas;
  std::unique_ptr<core::SecureTfContext> ctx;
  double attest_s = 0;
  bool attested = false;
};

std::unique_ptr<ColdSetup> cold_setup(const Options& o, Tracer& tracer) {
  auto s = std::make_unique<ColdSetup>();
  timed(tracer, "ml.models.build", [&] {
    const ml::Graph graph = ml::sized_classifier("densenet", kColdModelBytes,
                                                 kColdInputDim, 10, o.seed);
    ml::Session session(graph);
    s->model_bytes = ml::lite::FlatModel::from_frozen(
                         ml::freeze(graph, session), "input", "probs")
                         .serialize();
  });
  timed(tracer, "core.loadgen.generate_load", [&] {
    core::LoadGenConfig images;
    images.seed = o.seed;
    images.request_count = kColdImagePool;
    images.input_dim = kColdInputDim;
    images.input_pool = kColdImagePool;
    s->images = core::generate_load(images).images;
  });
  timed(tracer, "core.securetf.context_init", [&] {
    core::SecureTfConfig cfg;
    cfg.node_name = "hostbench-node";
    cfg.mode = tee::TeeMode::Hardware;
    cfg.fs_shield.fidelity = runtime::CryptoFidelity::Real;
    cfg.fs_shield.hardware_enclave = true;
    cfg.seed = o.seed;
    s->ctx = std::make_unique<core::SecureTfContext>(cfg, &s->authority);
    s->cas_host = std::make_unique<tee::Platform>(
        "cas-host", tee::TeeMode::Hardware, cfg.model, s->authority);
    s->cas = std::make_unique<cas::CasServer>(
        *s->cas_host, s->authority,
        crypto::to_bytes("hostbench-cas-" + std::to_string(o.seed)));
    cas::EnclavePolicy policy;
    policy.expected_mrenclave = s->ctx->service_measurement();
    policy.secrets = {
        {"fs-key", crypto::HmacDrbg(crypto::to_bytes(
                       "hostbench-fs-key-" + std::to_string(o.seed)))
                       .generate(32)}};
    s->cas->register_policy("hostbench", policy);
  });
  s->attest_s = timed(tracer, "cas.attest", [&] {
    s->attested = s->ctx->attach_cas(*s->cas, "hostbench").ok;
  });
  return s;
}

/// The fs-shield round trip of the model, once a run: shielded write, then
/// read back, verified and decrypted. Seal and read are scaled by the branch
/// calibration (portable GCM; calibration.h).
struct ShieldTrip {
  Counters before, after;
  double seal_s = 0, read_s = 0;
  double seal_factor = 1, read_factor = 1;
  crypto::Bytes read;
};

ShieldTrip shield_trip(Result& r, ColdSetup& s, SpeedProbe& probe,
                       Tracer& tracer) {
  ScopedSpan span(tracer, "bench.shield_trip");
  ShieldTrip t;
  t.before = snapshot_counters();
  probe.start();
  t.seal_s = timed(tracer, "runtime.fs_shield.write",
                   [&] { s.ctx->write_file(kColdPath, s.model_bytes); });
  t.seal_factor = probe.next();
  t.read_s = timed(tracer, "runtime.fs_shield.read",
                   [&] { t.read = s.ctx->read_file(kColdPath); });
  t.read_factor = probe.next();
  t.after = snapshot_counters();
  check(r, "fs_shield.read_returns_sealed_bytes", t.read == s.model_bytes);
  r.attempted += 2;
  return t;
}

/// Cold starts from the decrypted model: deserialize, launch a Lite service,
/// the first classify, then warm batch-1 classify calls; repeated for the
/// rest of the run. A memory calibration sample right before each cycle and
/// each warm call scales it (calibration.h).
struct ColdCycles {
  Samples start;     ///< deserialize + launch + first classify, seconds
  Samples classify;  ///< warm classify calls, milliseconds
  std::vector<double> deserialize_s, launch_s;
  Counters before, after;  ///< around the first cycle's classify calls
  std::vector<ml::Tensor> first_output;  ///< per pool image, first cycle
  bool repeatable = true;  ///< every output equals its image's first one
  double virtual_ms = 0;   ///< virtual latency after the first cycle
  std::unique_ptr<core::InferenceService> service;  ///< the last cycle's
};

ColdCycles cold_cycles(Result& r, ColdSetup& s, const crypto::Bytes& bytes,
                       MemoryProbe& memory, Clock::time_point deadline,
                       Tracer& tracer) {
  ColdCycles c;
  c.first_output.resize(kColdImagePool);
  for (int cycle = 0; cycle < kColdMinCycles || Clock::now() < deadline;
       ++cycle) {
    ScopedSpan span(tracer, "bench.pass", cycle);
    const double start_factor = kReferenceMemoryMs / memory.sample_ms(tracer);
    ml::lite::FlatModel model;
    const double deserialize_s = timed(
        tracer, "ml.lite.deserialize",
        [&] { model = ml::lite::FlatModel::deserialize(bytes); }, cycle);
    const double launch_s = timed(
        tracer, "core.inference.launch",
        [&] {
          core::InferenceOptions options;
          options.container_name = "hostbench-cold";
          options.kernels = kSerialKernels;
          c.service = s.ctx->create_lite_service(std::move(model), options);
        },
        cycle);
    c.deserialize_s.push_back(deserialize_s);
    c.launch_s.push_back(launch_s);
    if (cycle == 0) c.before = snapshot_counters();
    for (int i = 0; i <= kColdWarmCalls; ++i) {
      const auto img =
          static_cast<std::size_t>((cycle + i) % kColdImagePool);
      const double factor =
          i == 0 ? start_factor : kReferenceMemoryMs / memory.sample_ms(tracer);
      ml::Tensor out;
      const double t = timed(
          tracer, "core.inference.classify",
          [&] { out = c.service->classify(s.images[img]); }, i);
      if (i == 0) {
        c.start.add(deserialize_s + launch_s + t, factor);
      } else {
        c.classify.add(t * 1e3, factor);
      }
      if (c.first_output[img].size() == 0) {
        c.first_output[img] = std::move(out);
      } else {
        c.repeatable = c.repeatable && same_tensor(out, c.first_output[img]);
      }
    }
    if (cycle == 0) {
      c.after = snapshot_counters();
      c.virtual_ms = c.service->last_latency_ms();
    }
    r.attempted += kColdWarmCalls + 1;
  }
  return c;
}

Result run_cold_start(const Options& o, Tracer& tracer) {
  Result r;
  SpeedProbe probe(tracer);
  Samples setup;
  std::vector<double> attest_s;
  std::unique_ptr<ColdSetup> s;
  bool attested = true;
  for (std::size_t i = 0; i < kMinSetups; ++i) {
    s.reset();
    probe.start();
    setup.add(timed(tracer, "bench.setup", [&] { s = cold_setup(o, tracer); },
                    static_cast<std::int64_t>(i)),
              probe.next());
    attest_s.push_back(s->attest_s);
    attested = attested && s->attested;
  }
  check(r, "cas.attestation_released_fs_key", attested);
  r.attempted += 1;

  // The run measures for o.seconds from here: one shield round trip, then
  // cold-start cycles while time is left.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  const ShieldTrip trip = shield_trip(r, *s, probe, tracer);
  MemoryProbe memory;
  const ColdCycles cycles =
      cold_cycles(r, *s, trip.read, memory, deadline, tracer);

  // Reference: the model as serialized, never through the shield, run by an
  // env-less interpreter.
  std::unique_ptr<ml::lite::FlatModel> reference;
  std::unique_ptr<ml::lite::LiteInterpreter> interpreter;
  timed(tracer, "bench.check", [&] {
    reference = std::make_unique<ml::lite::FlatModel>(
        ml::lite::FlatModel::deserialize(s->model_bytes));
    interpreter = std::make_unique<ml::lite::LiteInterpreter>(
        *reference, nullptr, kSerialKernels);
    bool identical = cycles.repeatable;
    for (std::int64_t i = 0; i < kColdImagePool; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      identical = identical && same_tensor(interpreter->invoke(s->images[idx]),
                                           cycles.first_output[idx]);
    }
    check(r, "classify_matches_envless_invoke", identical);
  });

  const double load_wall_s = median(cycles.deserialize_s) +
                             median(cycles.launch_s);
  put_e2e(r, "setup", "s", setup);
  put_e2e(r, "pass", "s", cycles.start);
  put_e2e(r, "op", "ms", cycles.classify);
  put_speed(r, probe);
  put_speed(r, memory);
  put(r, "seal_s", trip.seal_s * trip.seal_factor, "s");
  put(r, "load_s", trip.read_s * trip.read_factor + load_wall_s, "s");
  put(r, "classify_ms_p50", median(cycles.classify.scaled), "ms");
  put(r, "classify_ms_p90", quantile(cycles.classify.scaled, 0.9), "ms");
  put(r, "classify_samples", static_cast<double>(cycles.classify.wall.size()),
      "count");
  put(r, "virtual_classify_ms", cycles.virtual_ms, "virtual_ms");
  put(r, "bench.passes", static_cast<double>(cycles.start.wall.size()),
      "count");
  put(r, "runtime.fs_shield.write_s", trip.seal_s, "s");
  put(r, "runtime.fs_shield.read_s", trip.read_s, "s");
  put(r, "ml.lite.deserialize_s", median(cycles.deserialize_s), "s");
  put(r, "core.inference.launch_s", median(cycles.launch_s), "s");
  put(r, "cas.attest_s", median(attest_s), "s");
  put_counts(r, trip.after, trip.before,
             {"runtime.fs_shield.bytes_sealed",
              "runtime.fs_shield.bytes_opened",
              "runtime.fs_shield.integrity_failures"});
  put_counts(r, cycles.after, cycles.before, kEpcCounters);
  put_counts(r, cycles.after, cycles.before, {"ml.kernels.gemm_calls"});
  r.failed += static_cast<std::int64_t>(
      delta(trip.after, trip.before, "runtime.fs_shield.integrity_failures"));

  r.config["model_bytes"] = std::to_string(s->model_bytes.size());
  r.config["warm_calls_per_cycle"] = std::to_string(kColdWarmCalls);

  if (o.trace) {
    ScopedSpan root(tracer, "bench.replay_classify");
    // Each call goes through every layer back to back, so that host-speed
    // drift cancels in the per-layer differences.
    const std::vector<GemmShape> gemms = lite_gemms(*reference);
    double classify_s = 0, invoke_s = 0, gemm_s = 0, flops = 0;
    for (int i = 0; i < kColdReplayCalls; ++i) {
      const auto img = static_cast<std::size_t>(i % kColdImagePool);
      classify_s += timed(
          tracer, "core.inference.classify",
          [&] { (void)cycles.service->classify(s->images[img]); }, i);
      invoke_s += timed(tracer, "ml.lite.invoke",
                        [&] { (void)interpreter->invoke(s->images[img]); }, i);
      gemm_s += timed(
          tracer, "ml.kernels.gemm",
          [&] {
            flops +=
                replay_lite_gemms(kSerialKernels, *reference, gemms, 1, false);
          },
          i);
    }
    put(r, "core.inference.classify_s", classify_s, "s");
    put(r, "core.inference.container_s", classify_s - invoke_s, "s");
    put(r, "ml.lite.invoke_s", invoke_s, "s");
    put(r, "ml.lite.glue_s", invoke_s - gemm_s, "s");
    put(r, "ml.kernels.gemm_s", gemm_s, "s");
    put(r, "ml.kernels.gflops", flops / gemm_s / 1e9, "GFLOP/s");
    put(r, "ml.lite.weight_bytes_materialized",
        materialized_weight_bytes(*reference) * kColdReplayCalls, "bytes");
    crypto_rates(r, tracer, 64 * 1024, o.seed);
  }
  return r;
}

}  // namespace

Result run_workload(const Options& options, Tracer& tracer) {
  if (options.workload == "serve") return run_serve(kServe, options, tracer);
  if (options.workload == "serve_failover") {
    return run_serve(kServeFailover, options, tracer);
  }
  if (options.workload == "train") return run_train(options, tracer);
  if (options.workload == "cold_start") return run_cold_start(options, tracer);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace hostbench
