#include "workloads.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "common/rng.hpp"
#include "trace/border_router.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::benchmark {

namespace {

/// Subscribers of the pipeline workload's fan-out.
constexpr std::uint32_t kSubscribers = 3;

// Pass sizes are chosen so one timed pass takes about a second of host
// time on a 4-core x86 VM (RelWithDebInfo build).  A run then has a dozen
// or more passes to take its median from, which shared hosts need: single
// passes there vary by +-10%.
WorkloadSpec make_wire64() {
  // Fig. 8 row WireCAP-B-(256,100): one queue, x=0, one flow of minimum
  // frames at 14.88 Mp/s.  The bare capture path, per packet.
  WorkloadSpec spec;
  spec.name = "wire64";
  spec.engine.kind = apps::EngineKind::kWirecapBasic;
  spec.engine.cells_per_chunk = 256;
  spec.engine.chunk_count = 100;
  spec.queues = 1;
  spec.packets = 1'500'000;
  spec.frame_bytes = 64;
  spec.flows = 1;
  return spec;
}

WorkloadSpec make_border6() {
  // Fig. 11 / Table 1: WireCAP-A over six queues at x=300 replaying the
  // border-router trace.  Few packets per second, many scheduler events
  // (idle queues poll every 50 us), and the only workload where buddy
  // offloading and partial-chunk rescues happen.  The replay is 8 s with
  // queue 0's long-term overload (80 kp/s against a 38.8 kp/s handler)
  // starting at 2 s instead of 10 s: a pass then takes about a second of
  // host time and most of it is the overload offloading exists for.
  WorkloadSpec spec;
  spec.name = "border6";
  spec.engine.kind = apps::EngineKind::kWirecapAdvanced;
  spec.engine.cells_per_chunk = 256;
  spec.engine.chunk_count = 100;
  spec.engine.offload_threshold = 0.6;
  spec.queues = 6;
  spec.x = 300;
  spec.border = true;
  spec.border_seconds = 8.0;
  spec.border_hot_split_s = 2.0;
  spec.drain_s = 2.0;
  return spec;
}

WorkloadSpec make_pipeline4() {
  // Line-rate minimum frames over 256 flows into a filter|sample|aggregate
  // chain and a flow-hash fan-out: the bpf, pipeline and FlowTable code
  // does most of the work.
  WorkloadSpec spec;
  spec.name = "pipeline4";
  spec.engine.kind = apps::EngineKind::kWirecapAdvanced;
  spec.engine.cells_per_chunk = 256;
  spec.engine.chunk_count = 100;
  spec.engine.offload_threshold = 0.6;
  spec.queues = 4;
  spec.consumer = Consumer::kPipeline;
  spec.packets = 2'000'000;
  spec.frame_bytes = 64;
  spec.flows = 256;
  return spec;
}

WorkloadSpec make_spool4() {
  // 512-byte frames at line rate into the indexed pcapng spool, then two
  // StoreReader queries: the only workload with file I/O and a read path.
  WorkloadSpec spec;
  spec.name = "spool4";
  spec.engine.kind = apps::EngineKind::kWirecapAdvanced;
  spec.engine.cells_per_chunk = 256;
  spec.engine.chunk_count = 100;
  spec.engine.offload_threshold = 0.6;
  spec.queues = 4;
  spec.consumer = Consumer::kSpool;
  spec.packets = 1'000'000;
  spec.frame_bytes = 512;
  spec.flows = 64;
  return spec;
}

class StampedSource final : public trace::TrafficSource {
 public:
  StampedSource(const std::vector<net::WirePacket>& frames, double interval_ns,
                std::uint64_t limit)
      : frames_(frames), interval_ns_(interval_ns), limit_(limit) {}

  std::optional<net::WirePacket> next() override {
    if (emitted_ >= limit_) return std::nullopt;
    const net::WirePacket& frame = frames_[emitted_ % frames_.size()];
    const Nanos when{static_cast<std::int64_t>(
        static_cast<double>(emitted_) * interval_ns_)};
    return net::WirePacket::from_bytes(when, frame.bytes(), frame.wire_len(),
                                       emitted_++);
  }

  [[nodiscard]] std::uint64_t expected_packets() const override {
    return limit_;
  }

 private:
  const std::vector<net::WirePacket>& frames_;
  double interval_ns_;
  std::uint64_t limit_;
  std::uint64_t emitted_ = 0;
};

class ReplaySource final : public trace::TrafficSource {
 public:
  explicit ReplaySource(std::span<const net::WirePacket> packets)
      : packets_(packets) {}

  std::optional<net::WirePacket> next() override {
    if (index_ >= packets_.size()) return std::nullopt;
    return packets_[index_++];
  }

  [[nodiscard]] std::uint64_t expected_packets() const override {
    return packets_.size();
  }

 private:
  std::span<const net::WirePacket> packets_;
  std::size_t index_ = 0;
};

}  // namespace

WorkloadSpec workload(const std::string& name) {
  if (name == "wire64") return make_wire64();
  if (name == "border6") return make_border6();
  if (name == "pipeline4") return make_pipeline4();
  if (name == "spool4") return make_spool4();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (wire64, border6, pipeline4, spool4)");
}

Traffic::Traffic(const WorkloadSpec& spec, std::uint64_t seed)
    : drain_s_(spec.drain_s) {
  SplitMix64 mix{seed ^ 0x5749524543415042ULL};
  if (spec.border) {
    trace::BorderRouterConfig config;
    config.seed = mix.next();
    config.duration_s = spec.border_seconds;
    config.hot_phase_split_s = spec.border_hot_split_s;
    config.num_queues = spec.queues;
    config.hot_queue = 0;
    config.bursty_queue = 3 % spec.queues;
    auto source = trace::make_border_router_source(config);
    recorded_ = trace::RecordedTrace::record(*source);
    size_ = recorded_.size();
    return;
  }
  // Flows are drawn per queue through the real Toeplitz hash and
  // interleaved, so consecutive packets visit every queue in turn.
  Xoshiro256 rng{mix.next()};
  for (std::uint32_t f = 0; f < spec.flows; ++f) {
    const net::FlowKey flow =
        trace::flow_for_queue(rng, f % spec.queues, spec.queues);
    frames_.push_back(
        net::WirePacket::make(Nanos::zero(), flow, spec.frame_bytes));
  }
  interval_ns_ =
      1e9 / ethernet::wire_rate(ethernet::k10GbpsBits, spec.frame_bytes)
                .per_second();
  size_ = spec.packets;
}

Nanos Traffic::arrival(std::uint64_t index) const {
  if (!recorded_.empty()) return recorded_.packets()[index].timestamp();
  return Nanos{
      static_cast<std::int64_t>(static_cast<double>(index) * interval_ns_)};
}

std::unique_ptr<trace::TrafficSource> Traffic::source(
    std::uint64_t limit) const {
  limit = std::min(limit, size_);
  if (!recorded_.empty()) {
    return std::make_unique<ReplaySource>(
        std::span<const net::WirePacket>(recorded_.packets()).first(limit));
  }
  return std::make_unique<StampedSource>(frames_, interval_ns_, limit);
}

Nanos Traffic::horizon(std::uint64_t limit) const {
  limit = std::min(limit, size_);
  const Nanos last = limit ? arrival(limit - 1) : Nanos::zero();
  return last + Nanos::from_seconds(drain_s_);
}

std::vector<net::WirePacket> Traffic::sample(std::uint64_t limit) const {
  auto src = source(limit);
  std::vector<net::WirePacket> packets;
  packets.reserve(std::min(limit, size_));
  while (auto packet = src->next()) packets.push_back(*packet);
  return packets;
}

std::uint64_t Traffic::count_packets(
    const std::function<bool(const net::FlowKey&)>& match,
    std::uint64_t limit) const {
  limit = std::min(limit, size_);
  std::uint64_t count = 0;
  if (!recorded_.empty()) {
    for (std::uint64_t i = 0; i < limit; ++i) {
      count += match(recorded_.packets()[i].flow());
    }
    return count;
  }
  for (std::uint64_t f = 0; f < frames_.size(); ++f) {
    if (!match(frames_[f].flow())) continue;
    // Packets i < limit with i % flows == f.
    count += limit / frames_.size() + (f < limit % frames_.size() ? 1 : 0);
  }
  return count;
}

net::FlowKey Traffic::first_flow() const {
  return recorded_.empty() ? frames_.front().flow()
                           : recorded_.packets().front().flow();
}

std::vector<pipeline::Subscriber> make_subscribers(Delivery& delivery,
                                                   SpanRecorder* recorder,
                                                   SpanRecorder::NameId span) {
  std::vector<pipeline::Subscriber> subs;
  for (std::uint32_t i = 0; i < kSubscribers; ++i) {
    subs.push_back(pipeline::Subscriber{
        "s" + std::to_string(i),
        [&delivery, recorder, span](pipeline::SharedBatch shared) {
          Span timed(recorder, span);
          timed.set_items(shared.batch().size());
          for (const engines::CaptureView& view : shared.batch().views) {
            delivery.record(view);
          }
          shared.release();
        },
        std::nullopt});
  }
  return subs;
}

store::SpoolConfig spool_config(const std::filesystem::path& dir) {
  store::SpoolConfig config;
  config.dir = dir;
  config.policy = store::BackpressurePolicy::kBlock;
  config.vectored_drain = true;
  return config;
}

apps::ExperimentConfig experiment_config(const WorkloadSpec& spec,
                                         const std::filesystem::path& spool_dir,
                                         Delivery& delivery) {
  apps::ExperimentConfig config;
  config.engine = spec.engine;
  config.num_queues = spec.queues;
  config.x = spec.x;
  switch (spec.consumer) {
    case Consumer::kHandler:
      break;
    case Consumer::kPipeline:
      config.pipeline = std::string("filter:") + kPipelineFilter +
                        "|sample:1/" + std::to_string(kPipelineSampleN) +
                        "|aggregate";
      config.steering = pipeline::Steering::kFlowHash;
      config.subscribers = [&delivery](std::uint32_t) {
        return make_subscribers(delivery);
      };
      break;
    case Consumer::kSpool:
      config.spool = spool_config(spool_dir);
      break;
  }
  return config;
}

}  // namespace wirecap::benchmark
