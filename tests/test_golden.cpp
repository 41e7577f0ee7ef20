// Behaviour lock for the discrete-event simulator.
//
// Two short experiments in the shape of the paper's Figure 8 (basic
// mode, one queue, 64 B frames at wire rate) and Figure 11 (advanced
// mode, border-router trace over six queues at x=300, buddy offloading
// and partial-chunk rescues) are folded into one canonical text of their
// virtual outputs: drops and deliveries per queue, the per-packet
// latency histogram, capture-queue high water, offloads and rescues.
// The tests pin a hash of that text.
//
// Virtual outputs are a deterministic function of the code, so a
// refactor of the simulator's hot path (scheduler, NIC, bus, engine
// poll) must leave every hash unchanged.  A change that alters
// behaviour on purpose re-pins them: the failure message prints the new
// text and its hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "apps/harness.hpp"
#include "common/rng.hpp"
#include "core/wirecap_engine.hpp"
#include "trace/border_router.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap {
namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Arrival-to-delivery latency of every delivered packet: a log2
/// histogram plus an order-sensitive hash of the exact values.
struct LatencyLog {
  const sim::Scheduler* clock = nullptr;
  std::array<std::uint64_t, 64> log2_bins{};
  std::uint64_t samples = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t sequence_hash = 0xcbf29ce484222325ULL;

  void record(const engines::CaptureView& view) {
    const auto ns =
        static_cast<std::uint64_t>((clock->now() - view.timestamp).count());
    ++log2_bins[static_cast<std::size_t>(std::bit_width(ns))];
    ++samples;
    sum_ns += ns;
    max_ns = std::max(max_ns, ns);
    sequence_hash = (sequence_hash ^ ns ^ (view.seq << 32)) * 0x100000001b3ULL;
  }
};

/// A digest plus the counts showing the run exercised what it locks.
struct Locked {
  std::string text;
  std::uint64_t dropped = 0;
  std::uint64_t offloaded = 0;
  std::uint64_t rescues = 0;
};

/// Runs `source` through `config` and digests the virtual outputs.
Locked run_and_digest(const apps::ExperimentConfig& config,
                      trace::TrafficSource& source, Nanos horizon) {
  apps::Experiment experiment{config};
  LatencyLog latency;
  latency.clock = &experiment.scheduler();
  for (std::uint32_t q = 0; q < config.num_queues; ++q) {
    experiment.handler(q).set_packet_hook(
        [&latency](const engines::CaptureView& view) { latency.record(view); });
  }
  const apps::ExperimentResult result = experiment.run(source, horizon);

  Locked locked;
  locked.dropped = result.capture_dropped + result.delivery_dropped;
  locked.offloaded = result.offloaded_chunks;
  struct {
    std::string& text;
    void add(const std::string& name, std::uint64_t value) {
      text += name + "=" + std::to_string(value) + ";";
    }
  } d{locked.text};
  d.add("sent", result.sent);
  d.add("capture_dropped", result.capture_dropped);
  d.add("delivery_dropped", result.delivery_dropped);
  d.add("delivered", result.delivered);
  d.add("processed", result.processed);
  d.add("offloaded_chunks", result.offloaded_chunks);
  for (const apps::QueueResult& q : result.per_queue) {
    d.add("q.arrived", q.arrived);
    d.add("q.capture_dropped", q.capture_dropped);
    d.add("q.delivery_dropped", q.delivery_dropped);
    d.add("q.delivered", q.delivered);
  }
  const auto* wirecap =
      dynamic_cast<const core::WirecapEngine*>(&experiment.engine());
  if (wirecap) {
    for (std::uint32_t q = 0; q < config.num_queues; ++q) {
      d.add("q.chunks_captured", wirecap->driver_stats(q).chunks_captured);
      d.add("q.partial_rescues", wirecap->driver_stats(q).partial_rescues);
      locked.rescues += wirecap->driver_stats(q).partial_rescues;
      d.add("q.offloaded_out", wirecap->queue_stats(q).chunks_offloaded_out);
      d.add("q.capture_queue_high_water",
            wirecap->extra_stats(q).capture_queue_high_water);
      d.add("q.pending_high_water", wirecap->extra_stats(q).pending_high_water);
      d.add("q.polls", wirecap->extra_stats(q).polls);
    }
  }
  d.add("latency.samples", latency.samples);
  d.add("latency.sum_ns", latency.sum_ns);
  d.add("latency.max_ns", latency.max_ns);
  d.add("latency.sequence_hash", latency.sequence_hash);
  for (std::size_t bin = 0; bin < latency.log2_bins.size(); ++bin) {
    if (latency.log2_bins[bin] != 0) {
      d.add("latency.log2." + std::to_string(bin), latency.log2_bins[bin]);
    }
  }
  return locked;
}

/// Figure 8's shape: 64 B frames of one flow at 14.88 Mp/s into one
/// queue, x=0.  PF_RING drops (its kernel copy cannot keep up); WireCAP-B
/// captures everything through the chunk path.
Locked fig08_digest(apps::EngineKind kind) {
  apps::ExperimentConfig config;
  config.engine.kind = kind;
  config.engine.cells_per_chunk = 256;
  config.engine.chunk_count = 100;
  config.num_queues = 1;
  config.x = 0;

  constexpr std::uint64_t kPackets = 300'000;
  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = kPackets;
  Xoshiro256 rng{0xB0B0};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};
  const Nanos horizon = Nanos::from_seconds(
      static_cast<double>(kPackets) / source.rate().per_second() + 0.5);
  return run_and_digest(config, source, horizon);
}

/// Figure 11's shape: the border-router trace over six queues at x=300.
/// One queue turns hot at 2 s: WireCAP-B drops there, while WireCAP-A's
/// buddy group (T = 60%) offloads its chunks and loses nothing.  Both
/// rescue partial chunks on the quiet queues.
Locked fig11_digest(apps::EngineKind kind) {
  apps::ExperimentConfig config;
  config.engine.kind = kind;
  config.engine.cells_per_chunk = 256;
  config.engine.chunk_count = 100;
  config.engine.offload_threshold = 0.6;
  config.num_queues = 6;
  config.x = 300;

  trace::BorderRouterConfig trace_config;
  trace_config.duration_s = 4.0;
  trace_config.num_queues = 6;
  trace_config.hot_queue = 0;
  trace_config.bursty_queue = 3;
  auto source = trace::make_border_router_source(trace_config);
  return run_and_digest(config, *source, Nanos::from_seconds(5.0));
}

void expect_pinned(const Locked& locked, std::uint64_t pinned) {
  EXPECT_EQ(fnv1a(locked.text), pinned)
      << "virtual outputs changed; new hash 0x" << std::hex
      << fnv1a(locked.text) << "\n" << locked.text;
}

TEST(DesGolden, Fig08WirecapBasicSingleQueue) {
  const Locked locked = fig08_digest(apps::EngineKind::kWirecapBasic);
  EXPECT_EQ(locked.dropped, 0u);  // Figure 8: no loss at wire rate
  expect_pinned(locked, 0x3565644e64e2a4cdULL);
}

TEST(DesGolden, Fig08PfRingSingleQueue) {
  const Locked locked = fig08_digest(apps::EngineKind::kPfRing);
  EXPECT_GT(locked.dropped, 0u);
  expect_pinned(locked, 0xd22ff93267121ddeULL);
}

TEST(DesGolden, Fig11WirecapBasicDrops) {
  const Locked locked = fig11_digest(apps::EngineKind::kWirecapBasic);
  EXPECT_GT(locked.dropped, 0u);
  EXPECT_GT(locked.rescues, 0u);
  expect_pinned(locked, 0x732b66639bbb820fULL);
}

TEST(DesGolden, Fig11WirecapAdvancedOffloading) {
  const Locked locked = fig11_digest(apps::EngineKind::kWirecapAdvanced);
  EXPECT_EQ(locked.dropped, 0u);  // Figure 11: offloading recovers the loss
  EXPECT_GT(locked.offloaded, 0u);
  EXPECT_GT(locked.rescues, 0u);
  expect_pinned(locked, 0x95312644996b5c60ULL);
}

}  // namespace
}  // namespace wirecap
