// Fault-injection and chunk-lifecycle tests: the ChunkLifecycleAuditor
// itself, regression tests for the rescue-path replenish bug and the
// close()-stale-state bug (each fails with its fix reverted), the
// late-bind telemetry regression, and the randomized fault-schedule
// soak asserting chunk-count conservation across 100+ seeds.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/wirecap_engine.hpp"
#include "driver/wirecap_driver.hpp"
#include "nic/device.hpp"
#include "sim/core.hpp"
#include "testing/faults.hpp"
#include "testing/lifecycle_auditor.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::testing {
namespace {

net::FlowKey test_flow() {
  return net::FlowKey{net::Ipv4Addr{10, 1, 0, 1}, net::Ipv4Addr{10, 1, 0, 2},
                      7777, 80, net::IpProto::kUdp};
}

// --- ChunkLifecycleAuditor ---

TEST(LifecycleAuditor, LegalLifecycleIsClean) {
  driver::RingBufferPool pool{1, 0, 8, 4};
  ChunkLifecycleAuditor auditor;
  pool.set_observer(&auditor);

  const auto id = pool.acquire_for_attach();
  ASSERT_TRUE(id.has_value());
  const auto meta = pool.mark_captured(*id, 0, 8);
  ASSERT_TRUE(meta.has_value());
  EXPECT_TRUE(pool.recycle(*meta).is_ok());
  const auto rescue = pool.capture_free_chunk(3);
  ASSERT_TRUE(rescue.has_value());
  EXPECT_TRUE(pool.recycle(*rescue).is_ok());
  const auto id2 = pool.acquire_for_attach();
  pool.release_attached(*id2);

  EXPECT_TRUE(auditor.clean());
  const AuditorStats& stats = auditor.stats();
  EXPECT_EQ(stats.transitions, 7u);
  EXPECT_EQ(stats.attaches, 2u);
  EXPECT_EQ(stats.captures, 1u);
  EXPECT_EQ(stats.rescues, 1u);
  EXPECT_EQ(stats.recycles, 2u);
  EXPECT_EQ(stats.releases, 1u);
  auditor.check_pool(pool);
  EXPECT_TRUE(auditor.clean());
}

TEST(LifecycleAuditor, FlagsTransitionDisagreeingWithShadow) {
  driver::RingBufferPool pool{1, 0, 8, 4};
  ChunkLifecycleAuditor auditor;
  pool.set_observer(&auditor);
  const auto id = pool.acquire_for_attach();  // shadow: attached
  ASSERT_TRUE(id.has_value());

  // A fabricated report claiming the chunk was free (a double attach /
  // use-after-recycle pattern) must fail fast.
  EXPECT_THROW(auditor.on_transition(pool, *id, driver::ChunkState::kFree,
                                     driver::ChunkState::kAttached, "attach"),
               std::logic_error);
  EXPECT_EQ(auditor.stats().violations, 1u);
  ASSERT_FALSE(auditor.violations().empty());
}

TEST(LifecycleAuditor, FlagsIllegalEdge) {
  driver::RingBufferPool pool{1, 0, 8, 4};
  AuditorConfig config;
  config.throw_on_violation = false;
  ChunkLifecycleAuditor auditor{config};
  pool.set_observer(&auditor);
  const auto id = pool.acquire_for_attach();
  ASSERT_TRUE(id.has_value());

  // attached -> captured reported as "recycle": right edge, wrong op.
  auditor.on_transition(pool, *id, driver::ChunkState::kAttached,
                        driver::ChunkState::kCaptured, "recycle");
  EXPECT_EQ(auditor.stats().violations, 1u);
  // captured -> attached is not an edge of the machine at all.
  auditor.on_transition(pool, *id, driver::ChunkState::kCaptured,
                        driver::ChunkState::kAttached, "attach");
  EXPECT_EQ(auditor.stats().violations, 2u);
}

TEST(LifecycleAuditor, DetectsTransitionsBypassingObserver) {
  driver::RingBufferPool pool{1, 0, 8, 4};
  AuditorConfig config;
  config.throw_on_violation = false;
  ChunkLifecycleAuditor auditor{config};
  pool.set_observer(&auditor);
  static_cast<void>(pool.acquire_for_attach());  // seeds the shadow

  pool.set_observer(nullptr);
  static_cast<void>(pool.acquire_for_attach());  // invisible transition
  pool.set_observer(&auditor);

  auditor.check_pool(pool);
  EXPECT_GE(auditor.stats().violations, 1u);
}

TEST(LifecycleAuditor, SeparatesPoolsByUid) {
  // Two pools with identical coordinates (a reopen in miniature): the
  // shadow of one must not bleed into the other.
  ChunkLifecycleAuditor auditor;
  auto first = std::make_unique<driver::RingBufferPool>(1, 0, 8, 4);
  first->set_observer(&auditor);
  const auto id = first->acquire_for_attach();
  ASSERT_TRUE(id.has_value());
  first.reset();

  driver::RingBufferPool second{1, 0, 8, 4};
  second.set_observer(&auditor);
  // In the fresh pool the same chunk id starts free again; if shadows
  // were keyed by coordinates this attach would be flagged.
  const auto id2 = second.acquire_for_attach();
  ASSERT_TRUE(id2.has_value());
  EXPECT_TRUE(auditor.clean());
}

// --- regression: rescue path must replenish the ring (bug 1) ---

// A 10-descriptor ring with M = 4 holds two whole segments plus two
// slack slots, so a rescue that consumes two cells is exactly what
// pushes empty_slots past the segment threshold.  Only the rescue path
// itself can seize that moment: the free chunk left over from open()
// did not arrive through recycle(), so no other replenish call is
// coming.  Without the rescue-path replenish()/kick() the free chunk
// sits idle and the ring runs 4 descriptors short until some unrelated
// recycle happens along.
TEST(RescueReplenish, RescueReplenishesNonAlignedRing) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.nic_id = 1;
  nic_config.num_rx_queues = 1;
  nic_config.rx_ring_size = 10;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};

  driver::WirecapDriverConfig config;
  config.cells_per_chunk = 4;
  config.chunk_count = 4;
  config.partial_chunk_timeout = Nanos::from_millis(1);
  driver::WirecapQueueDriver driver{nic, 0, config};
  driver.open();
  // Two segments fit (8 of 10 slots); two chunks stay free.
  ASSERT_EQ(nic.rx_ring(0).ready_count(), 8u);
  ASSERT_EQ(driver.pool().state_counts().free, 2u);

  // A 2-packet trickle ages past the partial-chunk timeout.
  std::uint64_t seq = 0;
  for (int p = 0; p < 2; ++p) {
    nic.receive(net::WirePacket::make(scheduler.now(), test_flow(), 64,
                                      seq++));
  }
  scheduler.run();  // DMA completes
  std::vector<driver::ChunkMeta> out;
  const Nanos later = scheduler.now() + Nanos::from_millis(2);
  const std::uint32_t copied = driver.capture(later, 16, out);
  ASSERT_EQ(copied, 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().pkt_count, 2u);
  EXPECT_EQ(driver.stats().partial_rescues, 1u);
  EXPECT_EQ(driver.stats().packets_copied, 2u);

  // The rescue freed 2 slots (10 - 8 + 2 = 4 empty): the remaining free
  // chunk must be attached right here, not deferred to a future recycle.
  EXPECT_EQ(nic.rx_ring(0).ready_count(), 10u)
      << "rescue path did not replenish the ring";
  EXPECT_EQ(driver.pool().state_counts().free, 0u);
  EXPECT_EQ(driver.stats().attach_failures, 0u);

  // The replenished ring keeps absorbing sustained partial load: the
  // donor's remainder goes out zero-copy once it fills, then the next
  // segment takes over.
  for (int p = 0; p < 2; ++p) {
    nic.receive(net::WirePacket::make(scheduler.now(), test_flow(), 64,
                                      seq++));
  }
  scheduler.run();
  EXPECT_EQ(driver.capture(scheduler.now(), 16, out), 0u);  // zero-copy
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.back().pkt_count, 2u);

  for (const driver::ChunkMeta& meta : out) {
    EXPECT_GT(meta.pkt_count, 0u);
    EXPECT_TRUE(driver.recycle(meta).is_ok());
  }
  scheduler.run();
  // All chunks home: pool conservation after the dust settles.
  const driver::ChunkStateCounts counts = driver.pool().state_counts();
  EXPECT_EQ(counts.free + counts.attached + counts.captured, 4u);
  EXPECT_EQ(counts.captured, 0u);
}

// --- regression: close() must not leak state into a reopen (bug 2) ---

class CloseLifecycleFixture : public ::testing::Test {
 protected:
  CloseLifecycleFixture() : bus_(scheduler_) {
    nic::NicConfig nic_config;
    nic_config.nic_id = 1;
    nic_config.num_rx_queues = 1;
    nic_config.rx_ring_size = 32;
    nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, bus_, nic_config);
    core::WirecapConfig engine_config;
    engine_config.cells_per_chunk = 8;
    engine_config.chunk_count = 6;
    engine_ = std::make_unique<core::WirecapEngine>(scheduler_, *nic_,
                                                    engine_config);
    app_core_ = std::make_unique<sim::SimCore>(scheduler_, 0);
  }

  void inject(std::uint32_t count) {
    for (std::uint32_t p = 0; p < count; ++p) {
      nic_->receive(net::WirePacket::make(scheduler_.now(), test_flow(), 64,
                                          seq_++));
    }
    scheduler_.run_until(scheduler_.now() + Nanos::from_millis(1));
  }

  sim::Scheduler scheduler_;
  sim::IoBus bus_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
  std::unique_ptr<core::WirecapEngine> engine_;
  std::unique_ptr<sim::SimCore> app_core_;
  std::uint64_t seq_ = 0;
};

TEST_F(CloseLifecycleFixture, CloseReopenWithHeldViewsStaysSafe) {
  ChunkLifecycleAuditor auditor;
  engine_->set_pool_observer(&auditor);
  engine_->open(0, *app_core_);
  inject(24);  // three full chunks

  // The application holds packets across the close: their chunks stay
  // in the outstanding map when close() runs.
  std::vector<engines::CaptureView> held;
  for (int i = 0; i < 10; ++i) {
    auto view = engine_->try_next(0);
    ASSERT_TRUE(view.has_value());
    held.push_back(*view);
  }

  engine_->close(0);
  engine_->open(0, *app_core_);  // fresh pool, same coordinates
  inject(16);

  // Late done() on pre-close views must be dropped by the epoch check —
  // with stale metadata surviving close() they would be recycled into
  // the new pool and corrupt it (logic_error from the next poll).
  for (const engines::CaptureView& view : held) {
    EXPECT_NO_THROW(engine_->done(0, view));
  }
  EXPECT_NO_THROW(scheduler_.run_until(scheduler_.now() + Nanos::from_millis(5)));

  // The reopened queue still delivers, and its pool stays consistent.
  std::uint32_t delivered_after_reopen = 0;
  while (auto view = engine_->try_next(0)) {
    ++delivered_after_reopen;
    engine_->done(0, *view);
  }
  EXPECT_GT(delivered_after_reopen, 0u);
  scheduler_.run_until(scheduler_.now() + Nanos::from_millis(5));
  auditor.check_conservation(*engine_, 0);
  EXPECT_TRUE(auditor.clean());
}

TEST_F(CloseLifecycleFixture, CloseDrainsQueuedChunksBackToPool) {
  engine_->open(0, *app_core_);
  inject(24);
  // Chunks are sitting on the capture queue, undelivered.
  engine_->close(0);
  // Everything reachable went home synchronously: only chunks held by
  // the application may remain captured, and here none are held.
  const driver::ChunkStateCounts counts = engine_->pool(0).state_counts();
  EXPECT_EQ(counts.captured, 0u);
  EXPECT_EQ(counts.attached, 0u);
  EXPECT_EQ(counts.free, 6u);
  EXPECT_EQ(nic_->rx_ring(0).ready_count(), 0u);  // ring reset
}

// --- regression: telemetry binding for late-opened queues (bug 3) ---

TEST_F(CloseLifecycleFixture, QueueOpenedAfterBindPublishesMetrics) {
  telemetry::Telemetry telemetry;
  engine_->bind_telemetry(telemetry, "wirecap", 1);
  EXPECT_FALSE(telemetry.registry.contains("wirecap.q0.pool.free_chunks"));

  engine_->open(0, *app_core_);  // opened after bind_telemetry
  ASSERT_TRUE(telemetry.registry.contains("wirecap.q0.pool.free_chunks"));
  ASSERT_TRUE(telemetry.registry.contains("wirecap.q0.driver.chunks_captured"));

  const auto& entry =
      telemetry.registry.entries().at("wirecap.q0.pool.free_chunks");
  ASSERT_TRUE(entry.gauge_fn);
  // 32-slot ring / 8-cell chunks: 4 attached at open, 2 of 6 left free.
  EXPECT_DOUBLE_EQ(entry.gauge_fn(), 2.0);

  // The binding survives a close/open cycle (it resolves through the
  // engine's queue state, not the torn-down driver).
  engine_->close(0);
  engine_->open(0, *app_core_);
  EXPECT_DOUBLE_EQ(entry.gauge_fn(), 2.0);
}

// --- regression: close() must return the queue's quota charge to the
// owning tenant's budget (bug 4) ---

TEST(CloseQuota, CloseReturnsChargedChunksToTenantBudget) {
  // A tenant at its quota closes one queue while the application still
  // holds views: the stranded chunks can never recycle (the epoch bump
  // drops their metadata), so close() itself must settle the charge.
  // With the credit missing, the reopened queue starts life already at
  // quota and captures nothing ever again.
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.nic_id = 1;
  nic_config.num_rx_queues = 2;
  nic_config.rx_ring_size = 32;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 8;
  engine_config.chunk_count = 6;
  core::WirecapEngine engine{scheduler, nic, engine_config};
  sim::SimCore app_core{scheduler, 0};
  engine.open(0, app_core);
  engine.open(1, app_core);

  engines::TenantSpec spec;
  spec.name = "capped";
  spec.queues = {0, 1};
  spec.chunk_quota = 3;
  const engines::TenantId tenant = engine.register_tenant(spec);

  // RSS on a two-queue NIC: pick a flow that definitely lands on queue 0.
  Xoshiro256 rng{99};
  const net::FlowKey flow = trace::flow_for_queue(rng, 0, 2);
  std::uint64_t seq = 0;
  const auto inject = [&](std::uint32_t count) {
    for (std::uint32_t p = 0; p < count; ++p) {
      nic.receive(net::WirePacket::make(scheduler.now(), flow, 64, seq++));
    }
    scheduler.run_until(scheduler.now() + Nanos::from_millis(1));
  };

  inject(24);  // three full chunks: the whole budget
  EXPECT_EQ(engine.tenant_account(tenant).charged, 3u);

  // The app holds views across the close: their chunks stay captured.
  std::vector<engines::CaptureView> held;
  for (int i = 0; i < 10; ++i) {
    auto view = engine.try_next(0);
    ASSERT_TRUE(view.has_value());
    held.push_back(*view);
  }

  engine.close(0);
  EXPECT_EQ(engine.tenant_account(tenant).charged, 0u)
      << "close() leaked the queue's quota charge";

  // Late done() on pre-close views is epoch-dropped and must not
  // double-credit the account either.
  for (const engines::CaptureView& view : held) engine.done(0, view);
  EXPECT_EQ(engine.tenant_account(tenant).charged, 0u);

  // The reopened queue has its full budget back.
  engine.open(0, app_core);
  inject(24);
  EXPECT_EQ(engine.tenant_account(tenant).charged, 3u);
  EXPECT_EQ(engine.pool(0).state_counts().captured, 3u);
}

// --- fault harness ---

TEST(FaultHarness, SingleSeedRunsCleanAndIsDeterministic) {
  FaultHarnessConfig config;
  config.plan.seed = 7;
  FaultRunResult first = FaultHarness{config}.run();
  EXPECT_TRUE(first.clean()) << (first.violations.empty()
                                     ? ""
                                     : first.violations.front());
  EXPECT_GT(first.delivered, 0u);
  EXPECT_GT(first.auditor.transitions, 0u);
  EXPECT_GT(first.auditor.conservation_checks, 0u);

  FaultRunResult second = FaultHarness{config}.run();
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.forwarded, second.forwarded);
  EXPECT_EQ(first.reopens, second.reopens);
  EXPECT_EQ(first.auditor.transitions, second.auditor.transitions);
  EXPECT_EQ(first.auditor.recycle_rejects, second.auditor.recycle_rejects);
}

TEST(FaultHarness, ReportsThroughTelemetry) {
  FaultHarnessConfig config;
  config.plan.seed = 11;
  FaultHarness harness{config};
  const FaultRunResult result = harness.run();
  EXPECT_TRUE(result.clean());
  const telemetry::MetricRegistry& registry = harness.telemetry().registry;
  ASSERT_TRUE(registry.contains("faults.auditor.transitions"));
  EXPECT_EQ(registry.entries().at("faults.auditor.transitions").counter_fn(),
            result.auditor.transitions);
  ASSERT_TRUE(registry.contains("faults.q0.driver.partial_rescues"));
  ASSERT_TRUE(registry.contains("faults.q1.pool.free_chunks"));
}

// --- flight recorder: a fault-plan slow-drain spike must be explainable
// from its retained span sequence ---

TEST(FaultHarness, FlightRecorderCapturesSlowDrainOutliers) {
  FaultHarnessConfig config;
  config.plan.seed = 21;
  config.plan.spool_faults = true;  // schedule kSlowDisk / kDiskFull
  config.spool = true;              // blocking policy: backlog -> queue_wait
  config.latency = true;
  config.latency_outlier_threshold = Nanos::from_micros(50);
  FaultHarness harness{config};
  const FaultRunResult result = harness.run();
  EXPECT_TRUE(result.clean()) << (result.violations.empty()
                                      ? ""
                                      : result.violations.front());

  const telemetry::LatencyTracker& latency = harness.telemetry().latency;
  EXPECT_GT(latency.journeys_recorded(), 0u);
  const telemetry::FlightRecorder& recorder = latency.recorder();
  ASSERT_GT(recorder.outliers_seen(), 0u)
      << "slow-disk backpressure produced no e2e outlier";
  for (const telemetry::ChunkJourney& journey : recorder.outliers()) {
    // The retained span sequence is a full, monotone journey whose
    // stages add up: the spike is attributable, not just visible.
    EXPECT_TRUE(journey.complete());
    EXPECT_GE(journey.e2e_ns(), config.latency_outlier_threshold.count());
    EXPECT_EQ(journey.e2e_ns(), journey.capture_ns() +
                                    journey.queue_wait_ns() +
                                    journey.deliver_ns());
  }
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("outliers seen"), std::string::npos) << dump;
  EXPECT_NE(dump.find("queue_wait="), std::string::npos) << dump;

  // The per-stage percentile gauges came up under the harness prefix
  // (latency was enabled before bind_telemetry).
  const telemetry::MetricRegistry& registry = harness.telemetry().registry;
  ASSERT_TRUE(registry.contains("faults.q0.latency.e2e.p999"));
  ASSERT_TRUE(registry.contains("faults.q1.latency.queue_wait.p99"));
  EXPECT_GT(registry.entries().at("faults.q0.latency.e2e.p50").gauge_fn(),
            0.0);
}

// --- spool directories: the harness removes only what it picked ---

TEST(FaultHarness, RemovesItsOwnCleanSpoolDirectory) {
  FaultHarnessConfig config;
  config.plan.seed = 5;
  config.spool = true;
  std::filesystem::path dir;
  {
    FaultHarness harness{config};
    const FaultRunResult result = harness.run();
    ASSERT_TRUE(result.spool.has_value());
    ASSERT_TRUE(result.clean());
    dir = result.spool->dir;
    EXPECT_TRUE(std::filesystem::exists(dir));  // readable until destroyed
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << dir;

  // A caller-named directory is the caller's to remove.
  config.spool_dir = dir.string() + "-named";
  {
    FaultHarness harness{config};
    ASSERT_TRUE(harness.run().clean());
  }
  EXPECT_TRUE(std::filesystem::exists(config.spool_dir));
  std::filesystem::remove_all(config.spool_dir);
}

// --- the property: chunk-count conservation across randomized fault
// schedules (>= 100 seeds) ---

TEST(FaultSoak, ConservationHoldsAcross100Seeds) {
  // Default harness config: the lock-free SPSC-ring + steal-inbox
  // handoff, so every adversity hammers the fast path.
  const SoakResult soak = run_fault_soak(1, 100);
  EXPECT_EQ(soak.seeds_run, 100u);
  EXPECT_EQ(soak.total_violations, 0u)
      << (soak.failures.empty() ? "" : soak.failures.front());
  EXPECT_EQ(soak.seeds_clean, soak.seeds_run);
  // The soak must have actually exercised the adversities.
  EXPECT_GT(soak.total_delivered, 0u);
  EXPECT_GT(soak.total_reopens, 0u);
  EXPECT_GT(soak.total_conservation_checks, 1000u);
  EXPECT_GT(soak.total_transitions, 10'000u);
}

TEST(FaultPlan, TenantConfigShapesSchedule) {
  FaultPlanConfig config;
  config.num_queues = 4;
  config.num_tenants = 2;
  config.fault_queue_limit = 2;
  config.event_count = 64;
  const FaultPlan plan = FaultPlan::generate(config);
  ASSERT_EQ(plan.events().size(), 64u);
  bool saw_tenant_exhaust = false;
  for (const FaultEvent& event : plan.events()) {
    EXPECT_LT(event.queue, 2u);  // adversity confined to tenant 0
    if (event.kind == FaultKind::kTenantExhaust) saw_tenant_exhaust = true;
  }
  EXPECT_TRUE(saw_tenant_exhaust);
}

TEST(FaultSoak, MultiTenantConservationHoldsAcross100Seeds) {
  // Two tenants of two queues each, tight per-tenant quotas, the whole
  // adversity menu including kTenantExhaust: the per-ring law AND the
  // per-tenant four-way census must hold on every seed.
  FaultHarnessConfig base;
  base.plan.num_queues = 4;
  base.plan.num_tenants = 2;
  base.tenant_quota = 10;
  const SoakResult soak = run_fault_soak(1, 100, base);
  EXPECT_EQ(soak.seeds_run, 100u);
  EXPECT_EQ(soak.total_violations, 0u)
      << (soak.failures.empty() ? "" : soak.failures.front());
  EXPECT_EQ(soak.seeds_clean, soak.seeds_run);
  EXPECT_GT(soak.total_delivered, 0u);
  EXPECT_GT(soak.total_reopens, 0u);
  EXPECT_GT(soak.total_conservation_checks, 1000u);
  EXPECT_GT(soak.total_tenant_checks, 1000u);
}

TEST(FaultSoak, TenantFaultsNeverReduceNeighborDelivery) {
  // Isolation, 100 paired seeds: a quiet run (no faults) vs the same
  // seed with every adversity — pool exhaustion, tenant exhaustion,
  // stalls, reopens — aimed exclusively at tenant 0's queues.  Tenant
  // 1's workload derives from its own RNG streams and its own quota, so
  // its delivered count must never go down when its neighbour suffers.
  std::uint64_t victim_delivered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FaultHarnessConfig stormy;
    stormy.plan.seed = seed;
    stormy.plan.num_queues = 4;
    stormy.plan.num_tenants = 2;
    stormy.plan.fault_queue_limit = 2;  // tenant 0 owns queues {0, 1}
    stormy.tenant_quota = 6;
    FaultHarnessConfig quiet = stormy;
    quiet.plan.event_count = 0;

    const FaultRunResult calm = FaultHarness{quiet}.run();
    const FaultRunResult hit = FaultHarness{stormy}.run();
    ASSERT_TRUE(calm.clean()) << "seed " << seed;
    ASSERT_TRUE(hit.clean())
        << "seed " << seed << ": "
        << (hit.violations.empty() ? "" : hit.violations.front());
    ASSERT_EQ(calm.tenant_delivered.size(), 2u);
    ASSERT_EQ(hit.tenant_delivered.size(), 2u);
    EXPECT_GE(hit.tenant_delivered[1], calm.tenant_delivered[1])
        << "seed " << seed << ": tenant 0's faults cost tenant 1 "
        << calm.tenant_delivered[1] - hit.tenant_delivered[1] << " packets";
    victim_delivered += hit.tenant_delivered[1];
  }
  EXPECT_GT(victim_delivered, 0u);
}

}  // namespace
}  // namespace wirecap::testing
