// Tests for the libpcap-compatible facade: open/dispatch/loop semantics,
// kernel-style filtering, stats, breakloop, and inject (forwarding).
#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "bpf/parser.hpp"
#include "pcapcompat/pcap_compat.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::pcap {
namespace {

class PcapCompatFixture : public ::testing::Test {
 protected:
  PcapCompatFixture() {
    apps::ExperimentConfig config;
    config.engine.kind = apps::EngineKind::kWirecapBasic;
    config.engine.cells_per_chunk = 64;
    config.engine.chunk_count = 20;
    config.num_queues = 1;
    experiment_ = std::make_unique<apps::Experiment>(config);
  }

  /// Injects `count` packets alternating between a UDP flow in
  /// 131.225.2/24 and a TCP flow outside it.
  void inject(std::uint64_t count) {
    trace::ConstantRateConfig config;
    config.packet_count = count;
    net::FlowKey udp_flow{net::Ipv4Addr{131, 225, 2, 4},
                          net::Ipv4Addr{10, 0, 0, 1}, 5001, 53,
                          net::IpProto::kUdp};
    net::FlowKey tcp_flow{net::Ipv4Addr{192, 168, 0, 1},
                          net::Ipv4Addr{10, 0, 0, 1}, 5002, 80,
                          net::IpProto::kTcp};
    // Both flows must steer to queue 0 of a 1-queue NIC (trivially true).
    config.flows = {udp_flow, tcp_flow};
    source_ = std::make_unique<trace::ConstantRateSource>(config);
    injector_ = std::make_unique<nic::TrafficInjector>(
        experiment_->scheduler(), *source_, experiment_->nic());
    injector_->start();
  }

  std::unique_ptr<apps::Experiment> experiment_;
  std::unique_ptr<trace::ConstantRateSource> source_;
  std::unique_ptr<nic::TrafficInjector> injector_;
};

TEST_F(PcapCompatFixture, DispatchDeliversCapturedPackets) {
  // Note: the Experiment already runs a PktHandler on queue 0; use a
  // separate single-queue fabric for the pcap handle instead.
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 64;
  engine_config.chunk_count = 40;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};

  PcapHandle handle{scheduler, engine, nic, 0, app_core};

  trace::ConstantRateConfig config;
  config.packet_count = 100;
  Xoshiro256 rng{41};
  config.flows = {trace::random_flow(rng)};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();
  scheduler.run_until(Nanos::from_seconds(1));

  int seen = 0;
  std::uint32_t last_len = 0;
  const int handled = handle.dispatch(0, [&](const PacketHeader& header,
                                             std::span<const std::byte> data) {
    ++seen;
    last_len = header.len;
    EXPECT_EQ(header.caplen, data.size());
    EXPECT_GT(header.ts_ns, -1);
  });
  EXPECT_EQ(handled, 100);
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(last_len, 64u);
  EXPECT_EQ(handle.stats().ps_recv, 100u);
  EXPECT_EQ(handle.stats().ps_ifdrop, 0u);
}

TEST(PcapCompat, FilterSelectsMatchingPackets) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 64;
  engine_config.chunk_count = 40;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};
  PcapHandle handle{scheduler, engine, nic, 0, app_core};
  handle.set_filter(PcapHandle::compile("131.225.2 and udp"));

  trace::ConstantRateConfig config;
  config.packet_count = 60;  // 30 UDP-matching + 30 TCP
  config.flows = {net::FlowKey{net::Ipv4Addr{131, 225, 2, 4},
                               net::Ipv4Addr{10, 0, 0, 1}, 5001, 53,
                               net::IpProto::kUdp},
                  net::FlowKey{net::Ipv4Addr{192, 168, 0, 1},
                               net::Ipv4Addr{10, 0, 0, 1}, 5002, 80,
                               net::IpProto::kTcp}};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();
  scheduler.run_until(Nanos::from_seconds(1));

  int matched = 0;
  handle.dispatch(0, [&](const PacketHeader&, std::span<const std::byte>) {
    ++matched;
  });
  EXPECT_EQ(matched, 30);
  // ps_recv counts everything the handle consumed, matching libpcap.
  EXPECT_EQ(handle.stats().ps_recv, 60u);
}

TEST(PcapCompat, LoopHonorsCountAndBreak) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 64;
  engine_config.chunk_count = 40;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};
  PcapHandle handle{scheduler, engine, nic, 0, app_core};

  trace::ConstantRateConfig config;
  config.packet_count = 50;
  Xoshiro256 rng{42};
  config.flows = {trace::random_flow(rng)};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  // loop() advances the simulation itself ("blocking read").
  int seen = 0;
  const int handled = handle.loop(
      20, [&](const PacketHeader&, std::span<const std::byte>) { ++seen; });
  EXPECT_EQ(handled, 20);
  EXPECT_EQ(seen, 20);

  // breakloop from inside the handler.
  const int result = handle.loop(0, [&](const PacketHeader&,
                                        std::span<const std::byte>) {
    ++seen;
    if (seen == 25) handle.breakloop();
  });
  EXPECT_EQ(result, -2);
  EXPECT_EQ(seen, 25);
}

TEST(PcapCompat, InjectForwardsZeroCopy) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.nic_id = 1;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  nic::NicConfig nic2_config;
  nic2_config.nic_id = 2;
  nic::MultiQueueNic nic2{scheduler, bus, nic2_config};

  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 64;
  engine_config.chunk_count = 40;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};
  PcapHandle handle{scheduler, engine, nic, 0, app_core};

  std::uint64_t egress = 0;
  nic2.set_egress([&](const net::WirePacket&) { ++egress; });

  trace::ConstantRateConfig config;
  config.packet_count = 32;
  Xoshiro256 rng{43};
  config.flows = {trace::random_flow(rng)};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();
  scheduler.run_until(Nanos::from_seconds(1));

  handle.dispatch(0, [&](const PacketHeader&, std::span<const std::byte>) {
    EXPECT_GT(handle.inject(nic2, 0), 0);
  });
  scheduler.run_until(Nanos::from_seconds(2));
  EXPECT_EQ(egress, 32u);
  // inject outside a handler fails.
  EXPECT_EQ(handle.inject(nic2, 0), -1);
}

TEST(PcapCompat, CompileRejectsBadFilters) {
  EXPECT_THROW(PcapHandle::compile("no such primitive"), bpf::ParseError);
}

TEST(PcapCompat, NextExYieldsEachPacketThenZero) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 64;
  engine_config.chunk_count = 40;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};
  PcapHandle handle{scheduler, engine, nic, 0, app_core};

  trace::ConstantRateConfig config;
  config.packet_count = 50;
  Xoshiro256 rng{43};
  config.flows = {trace::random_flow(rng)};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  int yielded = 0;
  int idle = 0;
  while (idle < 2) {
    scheduler.run_until(scheduler.now() + Nanos::from_millis(5));
    PacketHeader header;
    std::span<const std::byte> data;
    bool any = false;
    int rc;
    while ((rc = handle.next_ex(header, data)) == 1) {
      EXPECT_GT(header.caplen, 0u);
      EXPECT_EQ(header.caplen, data.size());
      EXPECT_GE(header.len, header.caplen);
      // The span must stay readable until the next call into the handle
      // (deferred batch recycling — the libpcap validity contract).
      EXPECT_NO_FATAL_FAILURE(static_cast<void>(data[0]));
      ++yielded;
      any = true;
    }
    EXPECT_EQ(rc, 0);  // non-blocking: 0 when nothing is pending
    idle = any ? 0 : idle + 1;
  }
  EXPECT_EQ(yielded, 50);
  EXPECT_EQ(handle.stats().ps_recv, 50u);
}

// Regression: a pushdown batch hook that compacts a batch to ZERO views
// must not leak the batch's chunks.  The deferred release keys off the
// batch's refs, not its views — an early-out on `views.empty()` here
// once dropped the whole chunk on the floor (permanent pool exhaustion).
TEST(PcapCompat, BatchCompactedToZeroStillRecycles) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.rx_ring_size = 32;  // R must exceed ring_size / M
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 8;
  engine_config.chunk_count = 12;  // small pool: a leak exhausts it fast
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};

  PcapHandle handle{scheduler, engine, nic, 0, app_core};
  std::uint64_t hook_batches = 0;
  std::uint64_t hook_packets = 0;
  handle.set_batch_hook([&](engines::PacketBatch& batch) {
    ++hook_batches;
    hook_packets += batch.views.size();
    batch.views.clear();  // compact everything away; refs stay
  });

  trace::ConstantRateConfig config;
  config.packet_count = 400;  // > pool capacity (12 * 8 = 96 cells)
  Xoshiro256 rng{43};
  config.flows = {trace::random_flow(rng)};
  trace::ConstantRateSource source{config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  int seen = 0;
  const auto drain = [&] {
    handle.dispatch(0, [&seen](const PacketHeader&,
                               std::span<const std::byte>) { ++seen; });
  };
  // Interleave injection and dispatch so a leak would exhaust the pool
  // mid-run (capture drops), not just strand chunks at the end.
  for (int step = 1; step <= 20; ++step) {
    scheduler.run_until(Nanos::from_micros(50.0 * step));
    drain();
  }
  scheduler.run_until(Nanos::from_seconds(1));
  drain();

  EXPECT_EQ(seen, 0);  // every packet was compacted away pre-delivery
  EXPECT_GT(hook_batches, 0u);
  EXPECT_EQ(hook_packets, 400u);  // nothing dropped: the pool never ran dry
  EXPECT_EQ(handle.stats().ps_ifdrop, 0u);

  // Every chunk settled home: nothing outstanding, nothing captured.
  const auto census = engine.captured_census(0);
  EXPECT_EQ(census.outstanding, 0u);
  EXPECT_EQ(engine.pool(0).state_counts().captured, census.total());
}

}  // namespace
}  // namespace wirecap::pcap
