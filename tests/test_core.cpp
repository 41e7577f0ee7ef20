// Tests for the WireCAP engine (the paper's contribution): basic-mode
// burst absorption proportional to R*M, R/M interchangeability (the
// Figure 10 property), zero-copy delivery, end-of-burst flush via the
// partial-rescue timeout, advanced-mode buddy offloading, chunk
// conservation, and zero-copy forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "apps/harness.hpp"
#include "core/wirecap_engine.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::apps {
namespace {

ExperimentResult run_wirecap_burst(std::uint32_t m, std::uint32_t r,
                                   std::uint64_t packets, unsigned x,
                                   Nanos drain = Nanos::from_seconds(5)) {
  ExperimentConfig config;
  config.engine.kind = EngineKind::kWirecapBasic;
  config.engine.cells_per_chunk = m;
  config.engine.chunk_count = r;
  config.num_queues = 1;
  config.x = x;
  Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = packets;
  Xoshiro256 rng{31};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};
  const Nanos horizon =
      Nanos::from_seconds(static_cast<double>(packets) /
                          source.rate().per_second()) + drain;
  return experiment.run(source, horizon);
}

TEST(WirecapBasic, WireRateCaptureNoLoss) {
  // Figure 8: WireCAP captures at wire speed without loss for any
  // (M, R), x=0.
  for (const auto& [m, r] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {64, 100}, {128, 100}, {256, 100}, {256, 500}}) {
    const auto result = run_wirecap_burst(m, r, 100'000, 0);
    EXPECT_EQ(result.drop_rate(), 0.0)
        << "WireCAP-B-(" << m << "," << r << ")";
    EXPECT_EQ(result.delivered, result.sent);
  }
}

TEST(WirecapBasic, BurstAbsorptionProportionalToRM) {
  // Figure 9: the burst WireCAP-B survives scales with R*M.  A pool of
  // 256x100 = 25,600 packets absorbs what DNA (1024-ring) cannot.
  const auto small_pool = run_wirecap_burst(64, 20, 30'000, 300);
  EXPECT_GT(small_pool.drop_rate(), 0.5);  // 1,280-packet pool overwhelmed

  const auto big_pool = run_wirecap_burst(256, 100, 25'000, 300);
  EXPECT_EQ(big_pool.drop_rate(), 0.0);  // 25,600-packet pool absorbs it

  // And the kept volume under overflow tracks pool + FIFO capacity.
  const auto overflowed = run_wirecap_burst(256, 100, 100'000, 300,
                                            Nanos::from_seconds(5));
  const auto kept =
      static_cast<double>(overflowed.sent - overflowed.capture_dropped);
  EXPECT_NEAR(kept, 256 * 100 + 4096, 1200.0);
  EXPECT_EQ(overflowed.delivery_dropped, 0u);  // WireCAP never delivery-drops
}

TEST(WirecapBasic, Figure10Property) {
  // Figure 10: with R*M fixed, the individual R and M do not matter.
  const auto a = run_wirecap_burst(64, 400, 40'000, 300);
  const auto b = run_wirecap_burst(128, 200, 40'000, 300);
  const auto c = run_wirecap_burst(256, 100, 40'000, 300);
  EXPECT_NEAR(a.drop_rate(), b.drop_rate(), 0.03);
  EXPECT_NEAR(b.drop_rate(), c.drop_rate(), 0.03);
}

TEST(WirecapBasic, ConservationWithChunks) {
  const auto result = run_wirecap_burst(64, 30, 50'000, 300,
                                        Nanos::from_seconds(30));
  EXPECT_EQ(result.sent, result.delivered + result.capture_dropped +
                             result.delivery_dropped);
  EXPECT_EQ(result.processed, result.delivered);
}

TEST(WirecapBasic, TailFlushedByPartialRescue) {
  // A burst that is not a multiple of M: the leftover packets must
  // still reach the application via the timeout-copy path.
  const auto result = run_wirecap_burst(256, 100, 1000, 0);
  EXPECT_EQ(result.delivered, 1000u);
  // 1000 = 3 full chunks of 256 + 232 leftover, delivered by copy.
  EXPECT_GT(result.copies, 0u);
  EXPECT_LE(result.copies, 232u + 256u);
}

TEST(WirecapBasic, MostDeliveryIsZeroCopy) {
  // For a large burst the copy fraction (timeout rescues only) is tiny.
  const auto result = run_wirecap_burst(256, 100, 100'000, 0);
  EXPECT_EQ(result.delivered, 100'000u);
  EXPECT_LT(static_cast<double>(result.copies),
            0.01 * static_cast<double>(result.delivered));
}

/// Two-queue experiment with a hot queue and an idle queue.
ExperimentResult run_imbalanced(EngineKind kind, double threshold,
                                std::uint64_t packets, Nanos horizon) {
  ExperimentConfig config;
  config.engine.kind = kind;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 50;
  config.engine.offload_threshold = threshold;
  config.num_queues = 2;
  config.x = 300;
  Experiment experiment{config};

  // All traffic to queue 0 at 70 kp/s: far beyond one handler's
  // 38.8 kp/s but within two handlers' combined 77.6 kp/s.
  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = packets;
  trace_config.link_bits_per_second = 70e3 * 84 * 8;
  Xoshiro256 rng{32};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 2)};
  trace::ConstantRateSource source{trace_config};
  return experiment.run(source, horizon);
}

TEST(WirecapAdvanced, OffloadingRecoversLongTermImbalance) {
  // Figure 11: basic mode drops heavily under a long-term single-queue
  // overload; advanced mode offloads to the idle buddy and keeps losses
  // near zero.
  const std::uint64_t packets = 140'000;  // 2 s at 70 kp/s
  const Nanos horizon = Nanos::from_seconds(2.0) + Nanos::from_seconds(30);

  const auto basic =
      run_imbalanced(EngineKind::kWirecapBasic, 0.6, packets, horizon);
  EXPECT_GT(basic.drop_rate(), 0.3);
  EXPECT_EQ(basic.offloaded_chunks, 0u);

  const auto advanced =
      run_imbalanced(EngineKind::kWirecapAdvanced, 0.6, packets, horizon);
  EXPECT_LT(advanced.drop_rate(), 0.02);
  EXPECT_GT(advanced.offloaded_chunks, 0u);
  // The buddy (queue 1) did real work.
  EXPECT_GT(advanced.per_queue[1].processed, packets / 4);
  // Conservation still holds with offloading in play.
  EXPECT_EQ(advanced.sent, advanced.delivered + advanced.capture_dropped +
                               advanced.delivery_dropped);
}

TEST(WirecapAdvanced, LowerThresholdOffloadsSooner) {
  // Figure 12: a lower T triggers offloading earlier, dropping less (or
  // at least offloading no fewer chunks).
  const std::uint64_t packets = 100'000;
  const Nanos horizon = Nanos::from_seconds(1.0) + Nanos::from_seconds(20);
  const auto low =
      run_imbalanced(EngineKind::kWirecapAdvanced, 0.5, packets, horizon);
  const auto high =
      run_imbalanced(EngineKind::kWirecapAdvanced, 0.9, packets, horizon);
  EXPECT_LE(low.drop_rate(), high.drop_rate() + 0.01);
  EXPECT_GE(low.offloaded_chunks, high.offloaded_chunks);
}

TEST(WirecapEngine, RejectsBadThreshold) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig config;
  config.offload_threshold = 1.5;
  EXPECT_THROW((core::WirecapEngine{scheduler, nic, config}),
               std::invalid_argument);
}

TEST(WirecapForward, ZeroCopyForwardingDeliversToReceiver) {
  ExperimentConfig config;
  config.engine.kind = EngineKind::kWirecapBasic;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 50;
  config.num_queues = 1;
  config.x = 0;
  config.forward = true;
  Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 5'000;
  Xoshiro256 rng{33};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};

  const auto result = experiment.run(source, Nanos::from_seconds(3));
  EXPECT_EQ(result.forwarded_received, 5'000u);
  EXPECT_EQ(result.forwarding_drop_rate(), 0.0);
  // Forwarding a captured chunk's packets is metadata-only: the only
  // copies are timeout rescues of the burst tail.
  EXPECT_LT(result.copies, 100u);
}

/// Manual fabric for dispatch-policy regressions: a NIC, a WireCAP
/// engine with explicit buddy groups, and metronome traffic — one full
/// chunk injected per capture-poll interval per hot queue, so every
/// poll captures and dispatches exactly one chunk and hot queues
/// dispatch in lockstep.  No consumers: capture queues fill, the
/// offload threshold trips, and the buddy-selection policy is the only
/// thing deciding where chunks land.
class DispatchFabric {
 public:
  DispatchFabric(core::WirecapConfig config, std::uint32_t num_queues,
                 const std::vector<std::vector<std::uint32_t>>& groups)
      : bus_{scheduler_}, num_queues_{num_queues} {
    nic::NicConfig nic_config;
    nic_config.num_rx_queues = num_queues;
    // Small rings so a modest R still satisfies R > ring_size / M.
    nic_config.rx_ring_size = 64;
    nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, bus_, nic_config);
    engine_ = std::make_unique<core::WirecapEngine>(scheduler_, *nic_,
                                                    std::move(config));
    core_ = std::make_unique<sim::SimCore>(scheduler_, 0);
    for (std::uint32_t q = 0; q < num_queues; ++q) engine_->open(q, *core_);
    for (const auto& group : groups) {
      engines::TenantSpec spec;
      spec.name = "group-q";
      spec.name += std::to_string(
          *std::min_element(group.begin(), group.end()));
      spec.queues = group;
      engine_->register_tenant(spec);
    }
    seqs_.resize(num_queues, 0);
  }

  /// Schedules `chunks` full chunks' worth of packets to `queue`: burst
  /// k of cells_per_chunk packets lands 10 us after poll k, i.e. 40 us
  /// before poll k+1 captures it as one full chunk.
  void inject_chunks(std::uint32_t queue, std::uint32_t chunks) {
    Xoshiro256 rng{41 + queue};
    const net::FlowKey flow =
        trace::flow_for_queue(rng, queue, num_queues_);
    const Nanos poll = sim::CostModel{}.capture_poll_interval;
    const std::uint32_t m = engine_->config().cells_per_chunk;
    for (std::uint32_t k = 0; k < chunks; ++k) {
      const Nanos at =
          Nanos{poll.count() * k} + Nanos::from_micros(10);
      scheduler_.schedule_at(at, [this, queue, flow, m] {
        for (std::uint32_t p = 0; p < m; ++p) {
          nic_->receive(net::WirePacket::make(scheduler_.now(), flow, 64,
                                              seqs_[queue]++));
        }
      });
    }
  }

  void run(Nanos until) { scheduler_.run_until(until); }

  [[nodiscard]] core::WirecapEngine& engine() { return *engine_; }

 private:
  sim::Scheduler scheduler_;
  sim::IoBus bus_;
  std::uint32_t num_queues_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
  std::unique_ptr<core::WirecapEngine> engine_;
  std::unique_ptr<sim::SimCore> core_;
  std::vector<std::uint64_t> seqs_;
};

TEST(WirecapDispatch, RoundRobinCyclesPerQueue) {
  // Two hot queues in different buddy groups dispatch in lockstep.
  // Round-robin state must be per-queue: queue 0's cycle over its two
  // buddies may not be perturbed by queue 3's dispatches (a shared
  // engine-global counter advances once per q3 chunk, flipping q0's
  // parity so one buddy gets everything).
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  config.offload_threshold = 0.25;
  config.offload_policy = core::OffloadPolicy::kRoundRobin;
  DispatchFabric fabric{config, 5, {{0, 1, 2}, {3, 4}}};
  fabric.inject_chunks(0, 16);
  fabric.inject_chunks(3, 16);
  fabric.run(Nanos::from_millis(5));

  const auto& engine = fabric.engine();
  // Threshold 0.25 * R=16: chunks 1-5 stay home, 6-16 offload.
  const std::uint64_t out = engine.queue_stats(0).chunks_offloaded_out;
  EXPECT_EQ(out, 11u);
  const std::uint64_t in1 = engine.queue_stats(1).chunks_offloaded_in;
  const std::uint64_t in2 = engine.queue_stats(2).chunks_offloaded_in;
  EXPECT_EQ(in1 + in2, out);
  // A true per-queue round-robin alternates: 6/5.  The shared-counter
  // regression starves one buddy completely.
  EXPECT_GE(in1, out / 4);
  EXPECT_GE(in2, out / 4);
}

TEST(WirecapDispatch, RandomBuddyStreamIndependentAcrossQueues) {
  // The random-buddy draw sequence of one queue must not depend on how
  // busy any other queue is (a shared engine-global RNG interleaves
  // both queues' draws).  Run the same queue-0 workload with and
  // without a second hot queue in an unrelated buddy group: queue 0's
  // per-buddy offload distribution must be bit-identical.
  const auto distribution = [](bool second_group_hot) {
    core::WirecapConfig config;
    config.cells_per_chunk = 8;
    config.chunk_count = 32;
    config.offload_threshold = 0.25;
    config.offload_policy = core::OffloadPolicy::kRandomBuddy;
    DispatchFabric fabric{config, 6, {{0, 1, 2, 3}, {4, 5}}};
    fabric.inject_chunks(0, 32);
    if (second_group_hot) fabric.inject_chunks(4, 32);
    fabric.run(Nanos::from_millis(5));
    return std::array<std::uint64_t, 3>{
        fabric.engine().queue_stats(1).chunks_offloaded_in,
        fabric.engine().queue_stats(2).chunks_offloaded_in,
        fabric.engine().queue_stats(3).chunks_offloaded_in};
  };
  const auto alone = distribution(false);
  const auto with_neighbor = distribution(true);
  // Queue 0 offloaded at all, spread over its buddies by the draws.
  EXPECT_GT(alone[0] + alone[1] + alone[2], 10u);
  EXPECT_EQ(alone, with_neighbor);
}

TEST(WirecapDispatch, LeastBusyJudgesOneLoadObservation) {
  // The home load is volatile (spool-backlog probes, concurrent
  // consumers).  The load observation that trips the offload threshold
  // must be the one compared against the best buddy: re-reading it can
  // see the backlog already cleared and keep every chunk home.  Probe
  // reports a huge backlog exactly once — one offload must result.
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  config.offload_threshold = 0.5;
  config.offload_policy = core::OffloadPolicy::kLeastBusy;
  DispatchFabric fabric{config, 2, {{0, 1}}};
  auto calls = std::make_shared<std::uint64_t>(0);
  fabric.engine().set_spool_backlog_probe(
      0, [calls]() -> std::size_t { return (*calls)++ == 0 ? 1000 : 0; });
  // Six chunks: depth alone (<= 6 of 16) never trips T=0.5, so the
  // probe's single spike is the only offload trigger.
  fabric.inject_chunks(0, 6);
  fabric.run(Nanos::from_millis(5));

  const auto& engine = fabric.engine();
  EXPECT_EQ(engine.queue_stats(0).chunks_offloaded_out, 1u);
  EXPECT_EQ(engine.queue_stats(1).chunks_offloaded_in, 1u);
  // The offload arrived as a steal deposit.
  EXPECT_EQ(engine.extra_stats(1).handoff_steals, 1u);
}

TEST(WirecapDispatch, InboxFullFallsHomeWithoutParking) {
  // A buddy's steal inbox is bounded; once it fills, every
  // further offload attempt must fall home in one step (counted as a
  // fallback) — never park in `pending` waiting on a buddy.
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 32;
  config.offload_threshold = 0.25;
  config.offload_policy = core::OffloadPolicy::kLeastBusy;
  DispatchFabric fabric{config, 2, {{0, 1}}};
  fabric.inject_chunks(0, 32);
  fabric.run(Nanos::from_millis(5));

  const auto& engine = fabric.engine();
  // Chunks 1-9 stay home (T=0.25 * R=32); the buddy's 8-slot inbox
  // absorbs the next 8; the rest fall home as fallbacks.
  EXPECT_EQ(engine.extra_stats(1).handoff_steals, 8u);
  EXPECT_EQ(engine.queue_stats(0).chunks_offloaded_out, 8u);
  EXPECT_GE(engine.extra_stats(0).handoff_fallbacks, 10u);
  // Fallbacks landed on the home ring, not in `pending`.
  EXPECT_EQ(engine.extra_stats(0).pending_high_water, 0u);
  // Depth-at-push high water: home kept 9 + the fallbacks.
  EXPECT_GE(engine.extra_stats(0).capture_queue_high_water, 20u);
}

TEST(WirecapReadApis, MixedReadsShareOneChunk) {
  // The three read APIs compose over one captured chunk: per-packet
  // reads, then a batch, then the chunk API hands over exactly the
  // packets still unread, in capture order.  Releasing every piece
  // through its own release call recycles the chunk exactly once.
  constexpr std::uint32_t kM = 8;
  constexpr std::uint32_t kSingles = 2;
  constexpr std::uint32_t kBatched = 3;
  core::WirecapConfig config;
  config.cells_per_chunk = kM;
  config.chunk_count = 16;
  DispatchFabric fabric{config, 1, {}};
  fabric.inject_chunks(0, 1);
  fabric.run(Nanos::from_millis(1));
  core::WirecapEngine& engine = fabric.engine();

  std::vector<engines::CaptureView> singles;
  for (std::uint32_t i = 0; i < kSingles; ++i) {
    auto view = engine.try_next(0);
    ASSERT_TRUE(view.has_value());
    singles.push_back(*view);
  }
  engines::PacketBatch batch;
  ASSERT_EQ(engine.try_next_batch(0, kBatched, batch), kBatched);
  const auto chunk = engine.try_next_chunk(0);
  ASSERT_TRUE(chunk.has_value());
  ASSERT_EQ(chunk->packets.size(), kM - kSingles - kBatched);
  EXPECT_EQ(chunk->source_ring, 0u);
  EXPECT_FALSE(engine.try_next_chunk(0).has_value());
  EXPECT_EQ(engine.queue_stats(0).delivered, kM);

  std::vector<engines::CaptureView> all = singles;
  all.insert(all.end(), batch.views.begin(), batch.views.end());
  all.insert(all.end(), chunk->packets.begin(), chunk->packets.end());
  for (std::uint32_t i = 0; i < kM; ++i) EXPECT_EQ(all[i].seq, i);

  for (const engines::CaptureView& view : singles) engine.done(0, view);
  engine.done_batch(0, batch);
  fabric.run(Nanos::from_millis(2));
  EXPECT_EQ(engine.driver_stats(0).chunks_recycled, 0u);
  engine.done_chunk(0, *chunk);
  fabric.run(Nanos::from_millis(3));
  EXPECT_EQ(engine.driver_stats(0).chunks_recycled, 1u);
  EXPECT_EQ(engine.driver_stats(0).recycle_rejects, 0u);
  EXPECT_EQ(engine.pool(0).state_counts().captured, 0u);
}

TEST(WirecapEngine, PoolAccounting) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 2;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig config;
  config.cells_per_chunk = 128;
  config.chunk_count = 16;
  core::WirecapEngine engine{scheduler, nic, config};
  sim::SimCore core{scheduler, 0};
  engine.open(0, core);
  engine.open(1, core);
  EXPECT_EQ(engine.total_pool_bytes(), 2ull * 128 * 16 * 2048);
  EXPECT_EQ(engine.pool(0).cells_per_chunk(), 128u);
}

TEST(WirecapTenancy, RegistrationValidatesSpecs) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 2;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapEngine engine{scheduler, nic, core::WirecapConfig{}};

  engines::TenantSpec closed;
  closed.name = "closed";
  closed.queues = {0};
  EXPECT_THROW(engine.register_tenant(closed), std::logic_error);

  sim::SimCore core{scheduler, 0};
  engine.open(0, core);
  engine.open(1, core);

  engines::TenantSpec nameless;
  nameless.queues = {0};
  EXPECT_THROW(engine.register_tenant(nameless), std::invalid_argument);

  engines::TenantSpec queueless;
  queueless.name = "queueless";
  EXPECT_THROW(engine.register_tenant(queueless), std::invalid_argument);

  engines::TenantSpec doubled;
  doubled.name = "doubled";
  doubled.queues = {1, 1};
  EXPECT_THROW(engine.register_tenant(doubled), std::invalid_argument);
}

TEST(WirecapTenancy, UpsertAndStealKeepQueuesDisjoint) {
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  DispatchFabric fabric{config, 3, {}};
  core::WirecapEngine& engine = fabric.engine();

  engines::TenantSpec a;
  a.name = "a";
  a.queues = {0, 1};
  const engines::TenantId ta = engine.register_tenant(a);

  // "b" claims queue 1: the registry stays a partition — 1 moves to b
  // and is released from a without any throw.
  engines::TenantSpec b;
  b.name = "b";
  b.queues = {1, 2};
  const engines::TenantId tb = engine.register_tenant(b);
  EXPECT_NE(ta, tb);
  EXPECT_EQ(engine.tenant_of(0), ta);
  EXPECT_EQ(engine.tenant_of(1), tb);
  EXPECT_EQ(engine.tenant_of(2), tb);
  ASSERT_EQ(engine.tenants().size(), 2u);
  EXPECT_EQ(engine.tenants()[ta].queues, (std::vector<std::uint32_t>{0}));

  // Re-registering "a" upserts in place: same id, same tenant count.
  a.queues = {0};
  a.chunk_quota = 7;
  EXPECT_EQ(engine.register_tenant(a), ta);
  EXPECT_EQ(engine.tenants().size(), 2u);
  EXPECT_EQ(engine.tenant_account(ta).quota, 7u);
}

TEST(WirecapTenancy, QuotaCapsCaptureAndIsolatesNeighbor) {
  // Tenant "a" (queue 0) gets a 4-chunk budget and no consumer: its
  // capture must stop at exactly 4 charged chunks while uncapped "b"
  // (queue 1) keeps capturing the same workload.
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  DispatchFabric fabric{config, 2, {}};
  core::WirecapEngine& engine = fabric.engine();

  engines::TenantSpec a;
  a.name = "a";
  a.queues = {0};
  a.chunk_quota = 4;
  engines::TenantSpec b;
  b.name = "b";
  b.queues = {1};
  const engines::TenantId ta = engine.register_tenant(a);
  const engines::TenantId tb = engine.register_tenant(b);

  fabric.inject_chunks(0, 10);
  fabric.inject_chunks(1, 10);
  fabric.run(Nanos::from_millis(5));

  EXPECT_EQ(engine.tenant_account(ta).charged, 4u);
  EXPECT_GT(engine.tenant_account(ta).quota_stalls, 0u);
  EXPECT_EQ(engine.pool(0).state_counts().captured, 4u);
  // The neighbour was not throttled by a's exhaustion.
  EXPECT_GT(engine.tenant_account(tb).charged, 4u);
  EXPECT_EQ(engine.tenant_account(tb).quota_stalls, 0u);

  // The three-way per-tenant census agrees for both tenants.
  for (const engines::TenantId t : {ta, tb}) {
    const auto census = engine.tenant_census(t);
    EXPECT_EQ(census.account_charged, census.pool_captured);
    EXPECT_EQ(census.account_charged, census.engine_census);
  }
}

TEST(WirecapTenancy, BudgetFollowsAStolenQueue) {
  // Tenant "a" owns queues {0, 1} under a quota and has no consumer, so
  // its captured chunks stay charged.  When "b" claims queue 1, the
  // chunks sitting in queue 1's pool move to b's budget with the queue.
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  DispatchFabric fabric{config, 2, {}};
  core::WirecapEngine& engine = fabric.engine();

  engines::TenantSpec a;
  a.name = "a";
  a.queues = {0, 1};
  a.chunk_quota = 12;
  const engines::TenantId ta = engine.register_tenant(a);

  fabric.inject_chunks(0, 3);
  fabric.inject_chunks(1, 4);
  fabric.run(Nanos::from_millis(5));
  const std::uint64_t queue1 = engine.pool(1).captured_chunks();
  ASSERT_EQ(queue1, 4u);
  ASSERT_EQ(engine.tenant_account(ta).charged, 3u + queue1);

  engines::TenantSpec b;
  b.name = "b";
  b.queues = {1};
  const engines::TenantId tb = engine.register_tenant(b);
  EXPECT_EQ(engine.tenant_account(ta).charged, 3u);
  EXPECT_EQ(engine.tenant_account(tb).charged, queue1);
  EXPECT_EQ(engine.tenant_account(ta).quota, 12u);
  EXPECT_EQ(engine.tenant_account(tb).quota, 0u);
  for (const engines::TenantId t : {ta, tb}) {
    const auto census = engine.tenant_census(t);
    EXPECT_EQ(census.account_charged, census.pool_captured);
    EXPECT_EQ(census.account_charged, census.engine_census);
  }
}

TEST(WirecapNuma, RemoteHandoffsCountedPerDispatcher) {
  // Queue 0 on the NIC's socket, buddy queue 1 on the other: every
  // offload crosses the interconnect and is counted against the
  // dispatching queue.
  core::WirecapConfig config;
  config.cells_per_chunk = 8;
  config.chunk_count = 16;
  config.offload_threshold = 0.25;
  config.nic_numa_node = 0;
  config.queue_numa_node = {0, 1};
  DispatchFabric fabric{config, 2, {{0, 1}}};
  fabric.inject_chunks(0, 16);
  fabric.run(Nanos::from_millis(5));

  const auto& engine = fabric.engine();
  const std::uint64_t out = engine.queue_stats(0).chunks_offloaded_out;
  EXPECT_GT(out, 0u);
  EXPECT_EQ(engine.extra_stats(0).numa_remote_handoffs, out);
  EXPECT_EQ(engine.extra_stats(1).numa_remote_handoffs, 0u);
}

TEST(WirecapNuma, RemotePoolPlacementChargesCaptureCost) {
  // The same burst, pool local vs remote to the NIC: an (artificially
  // large) per-chunk remote-capture penalty must slow the capture path
  // enough to overflow the ring, where the local run loses nothing.
  const auto run = [](std::uint32_t node) {
    ExperimentConfig config;
    config.engine.kind = EngineKind::kWirecapBasic;
    config.engine.cells_per_chunk = 64;
    config.engine.chunk_count = 100;
    config.engine.nic_numa_node = 0;
    config.engine.queue_numa_node = {node};
    config.num_queues = 1;
    config.x = 0;
    config.costs.numa_remote_capture_cost = Nanos::from_micros(400);
    Experiment experiment{config};

    trace::ConstantRateConfig trace_config;
    trace_config.packet_count = 50'000;
    Xoshiro256 rng{77};
    trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
    trace::ConstantRateSource source{trace_config};
    const Nanos horizon =
        Nanos::from_seconds(50'000.0 / source.rate().per_second()) +
        Nanos::from_seconds(5);
    return experiment.run(source, horizon);
  };
  const auto local = run(0);
  const auto remote = run(1);
  EXPECT_EQ(local.drop_rate(), 0.0);
  EXPECT_GT(remote.capture_dropped, local.capture_dropped);
}

}  // namespace
}  // namespace wirecap::apps
