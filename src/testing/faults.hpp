// Deterministic fault injection for the WireCAP data path.
//
// A FaultPlan is a seeded, pre-generated schedule of adversities aimed
// at the chunk lifecycle: application threads that stall or withhold
// recycles, TX-ring-full bursts on the forwarding path, forced pool
// exhaustion, partial-chunk-timeout storms, and close()/open() cycles
// racing application-held chunks.  The FaultHarness builds a full
// fabric (scheduler, NIC, WireCAP engine in advanced mode), attaches a
// ChunkLifecycleAuditor to every pool, executes the plan over
// background traffic, and audits the conservation law at a fixed
// virtual-time cadence.  Everything derives from the single seed, so a
// violating seed replays bit-for-bit.
//
// run_fault_soak() sweeps consecutive seeds — the regression gate the
// CI sanitizer job runs.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "engines/engine.hpp"
#include "net/flow.hpp"
#include "sim/bus.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"
#include "store/spool.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/lifecycle_auditor.hpp"

namespace wirecap::nic {
class MultiQueueNic;
}
namespace wirecap::core {
class WirecapEngine;
}
namespace wirecap::sim {
class SimCore;
}

namespace wirecap::testing {

enum class FaultKind : std::uint8_t {
  kDelayedRecycle,  // app defers done() on a batch of packets briefly
  kWithheldRecycle, // app sits on packets for a long time (near-leak)
  kAppStall,        // app thread stops consuming entirely for a while
  kTxBurst,         // burst of zero-copy forwards at a tiny TX ring
  kPoolExhaust,     // app holds everything it can until the pool drains
  kTimeoutStorm,    // sub-chunk trickle bursts forcing partial rescues
  kQueueReopen,     // close() + later open() while chunks are in flight
  kSlowDisk,        // one spool shard's disk slows by `magnitude`x
  kDiskFull,        // one spool shard's disk reports ENOSPC for a while
  kTenantExhaust,   // every queue of the hit tenant holds chunks at once
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  Nanos at = Nanos::zero();
  FaultKind kind = FaultKind::kAppStall;
  std::uint32_t queue = 0;
  Nanos duration = Nanos::zero();
  std::uint32_t magnitude = 0;  // views / packets / bursts, per kind
};

struct FaultPlanConfig {
  std::uint64_t seed = 1;
  /// Virtual-time window faults are scheduled in (traffic also stops
  /// here; the harness then drains).
  Nanos horizon = Nanos::from_millis(3);
  std::uint32_t num_queues = 2;
  std::uint32_t event_count = 24;
  /// Close/open cycles are the most invasive adversity; tests that
  /// want a steady-state-only schedule turn them off.
  bool allow_reopen = true;
  /// Adds the simulated-disk adversities (kSlowDisk / kDiskFull) to the
  /// schedule — only meaningful with FaultHarnessConfig::spool.
  bool spool_faults = false;
  /// Tenants sharing the NIC: the queues are partitioned into
  /// `num_tenants` contiguous slices, each registered as its own
  /// TenantSpec/buddy group.  >1 adds kTenantExhaust to the schedule
  /// and enables the per-tenant conservation audit.
  std::uint32_t num_tenants = 1;
  /// Restricts fault targeting to queues [0, fault_queue_limit); 0 hits
  /// every queue.  The isolation soaks aim all adversity at tenant 0's
  /// queues and assert tenant 1's delivery is untouched.
  std::uint32_t fault_queue_limit = 0;
};

class FaultPlan {
 public:
  /// Expands `config.seed` into a time-sorted adversity schedule.
  [[nodiscard]] static FaultPlan generate(const FaultPlanConfig& config);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::vector<FaultEvent> events_;
  std::uint64_t seed_ = 0;
};

struct FaultHarnessConfig {
  FaultPlanConfig plan;
  // Small geometry so adversities actually bite: a 12-chunk pool
  // exhausts, an 8-cell chunk rescues, a 4-slot TX ring fills.
  std::uint32_t cells_per_chunk = 8;
  std::uint32_t chunk_count = 12;
  std::uint32_t rx_ring_size = 32;
  std::uint32_t tx_ring_size = 4;
  /// Advanced mode (buddy offloading) puts chunks on foreign capture
  /// queues — the paths close() must sweep.
  bool advanced_mode = true;
  /// Per-tenant chunk quota handed to every registered TenantSpec
  /// (0 = uncapped).  Only meaningful with plan.num_tenants > 1, where
  /// it is what makes a stalled tenant exhaust *its own* budget while
  /// its neighbours keep capturing.
  std::uint32_t tenant_quota = 0;
  /// Mean inter-arrival of background traffic, per queue.
  Nanos mean_gap = Nanos::from_micros(2);
  /// Cadence of the conservation audit.
  Nanos check_interval = Nanos::from_micros(25);
  /// Settling time after the horizon before the final audit.
  Nanos drain = Nanos::from_millis(1);
  /// Fail at the violating call site instead of collecting (the soak
  /// collects so one bad seed reports all its violations).
  bool throw_on_violation = false;
  /// Capture-to-disk mode: the per-queue applications consume whole
  /// chunks and spool them (one shard per queue) instead of per-packet
  /// done(); after the drain the run merges the spool back and checks
  /// the round-trip conservation law (every consumed packet on disk
  /// exactly once, in global timestamp order, minus counted losses).
  bool spool = false;
  store::BackpressurePolicy spool_policy = store::BackpressurePolicy::kBlock;
  /// Spool target; empty picks a per-seed temp directory, which the
  /// harness removes on destruction unless its run verified dirty.
  std::filesystem::path spool_dir;
  /// Chunk-journey latency tracking + flight recorder: outliers above
  /// the threshold are retained for post-run inspection (tests read
  /// them through telemetry().latency.recorder()).
  bool latency = false;
  Nanos latency_outlier_threshold = Nanos::from_micros(100);
};

/// Round-trip accounting of one spooled fault run.
struct SpoolRunSummary {
  std::filesystem::path dir;
  /// Packets consumed from the engine and still owed to the store
  /// (consumed minus counted drops/evictions).
  std::uint64_t packets_expected = 0;
  /// Packets the merged StoreReader stream produced.
  std::uint64_t packets_merged = 0;
  /// Packets lost to drop policies / ring-close evictions (counted).
  std::uint64_t packets_lost = 0;
  std::uint64_t segments = 0;
  /// Merged-stream records whose timestamp went backwards.
  std::uint64_t order_violations = 0;
  /// Missing, duplicated, unidentified or unexpected packets.
  std::uint64_t conservation_failures = 0;
  std::vector<std::string> problems;
  [[nodiscard]] bool clean() const {
    return order_violations == 0 && conservation_failures == 0;
  }
};

struct FaultRunResult {
  std::uint64_t seed = 0;
  AuditorStats auditor;
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t reopens = 0;
  /// done() calls that landed after the owning queue had closed —
  /// exercised epoch-drop paths.
  std::uint64_t late_releases = 0;
  /// Delivered packets split by queue and by tenant (the partition of
  /// FaultPlanConfig::num_tenants) — the isolation soaks compare a
  /// victim tenant's slice across baseline and faulted runs.
  std::vector<std::uint64_t> queue_delivered;
  std::vector<std::uint64_t> tenant_delivered;
  std::vector<std::string> violations;
  /// Present when the harness ran in spool mode.
  std::optional<SpoolRunSummary> spool;
  [[nodiscard]] bool clean() const {
    return auditor.violations == 0 && (!spool || spool->clean());
  }
};

/// One deterministic fault-injection run: fabric + plan + auditor.
class FaultHarness {
 public:
  explicit FaultHarness(FaultHarnessConfig config);
  ~FaultHarness();

  FaultRunResult run();

  [[nodiscard]] const ChunkLifecycleAuditor& auditor() const {
    return auditor_;
  }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const {
    return telemetry_;
  }

 private:
  struct HeldView {
    engines::CaptureView view;
    std::uint32_t queue = 0;
    Nanos release_at = Nanos::zero();
  };

  struct AppState {
    Nanos stall_until = Nanos::zero();
    Nanos exhaust_until = Nanos::zero();
    std::uint32_t delay_remaining = 0;  // views still to be delayed
    Nanos delay_for = Nanos::zero();
    std::uint32_t tx_burst_remaining = 0;
    std::deque<HeldView> held;
    std::uint64_t seq = 0;  // traffic sequence numbers
  };

  struct HeldChunk {
    engines::ChunkCaptureView chunk;
    Nanos release_at = Nanos::zero();
  };

  void open_queue(std::uint32_t queue);
  /// Closes `queue` once its ring is quiesced, retrying past in-flight
  /// DMA up to `retries` more times, and schedules the reopen.
  void close_queue(std::uint32_t queue, int retries);
  void rebind_buddies();
  /// The contiguous-slice tenant partition (matches the registration in
  /// rebind_buddies and the tenant_delivered aggregation).
  [[nodiscard]] std::uint32_t tenant_of(std::uint32_t queue) const;
  void apply(const FaultEvent& event);
  void schedule_traffic(std::uint32_t queue, Nanos at);
  void app_poll(std::uint32_t queue);
  void consume(std::uint32_t queue, const engines::CaptureView& view);
  void release_due(std::uint32_t queue);
  void audit_tick();
  /// Per-tenant conservation over every fully-open tenant.
  void audit_tenants();
  // --- spool mode ---
  void spool_poll(std::uint32_t queue);
  void offer_chunk(std::uint32_t queue, engines::ChunkCaptureView&& chunk);
  void release_due_chunks(std::uint32_t queue);
  /// Pre-close teardown: pulls ring-owned chunks out of every shard
  /// queue and out of the applications' held lists (their cells dangle
  /// once the pool is torn down).
  void evict_ring_from_spool(std::uint32_t ring);
  void drain_spool();
  [[nodiscard]] SpoolRunSummary verify_spool();

  FaultHarnessConfig config_;
  FaultPlan plan_;
  Xoshiro256 rng_;
  /// Per-queue traffic/poll-jitter streams, seeded from (seed, queue):
  /// a fault that burns shared-RNG draws on tenant A's queues must not
  /// reshuffle tenant B's workload, or the isolation comparison between
  /// a baseline and a faulted run measures RNG drift, not interference.
  std::vector<Xoshiro256> queue_rngs_;
  sim::Scheduler scheduler_;
  /// Shared by the engine and the spool shards (which hold a reference).
  sim::CostModel costs_;
  sim::IoBus bus_;
  telemetry::Telemetry telemetry_;
  ChunkLifecycleAuditor auditor_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
  std::unique_ptr<core::WirecapEngine> engine_;
  std::vector<std::unique_ptr<sim::SimCore>> app_cores_;
  std::vector<AppState> apps_;
  std::vector<bool> queue_open_;
  std::vector<std::vector<net::FlowKey>> flows_;
  Nanos end_of_run_ = Nanos::zero();
  std::uint64_t forwarded_ = 0;
  std::uint64_t reopens_ = 0;
  std::uint64_t late_releases_ = 0;
  // --- spool mode ---
  std::unique_ptr<store::Spool> spool_;
  std::filesystem::path spool_dir_;
  /// The harness picked spool_dir_ itself and no run found it dirty.
  bool remove_spool_dir_ = false;
  std::vector<std::deque<HeldChunk>> held_chunks_;  // per consuming queue
  /// Seqs consumed from the engine and owed to the store; shrinks when
  /// a loss is counted (drop policy, ring-close eviction).
  std::unordered_set<std::uint64_t> expected_seqs_;
  std::uint64_t spool_lost_ = 0;  // held-chunk evictions (harness-side)
};

struct SoakResult {
  std::uint32_t seeds_run = 0;
  std::uint32_t seeds_clean = 0;
  std::uint64_t total_violations = 0;
  std::uint64_t total_transitions = 0;
  std::uint64_t total_conservation_checks = 0;
  std::uint64_t total_tenant_checks = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_reopens = 0;
  /// Spool-mode totals (zero when the soak ran without a spool).
  std::uint64_t total_spooled = 0;
  std::uint64_t total_spool_lost = 0;
  std::uint64_t total_spool_failures = 0;
  /// "seed N: <first violation>" per dirty seed.
  std::vector<std::string> failures;
  [[nodiscard]] bool clean() const {
    return total_violations == 0 && total_spool_failures == 0;
  }
};

/// Runs the harness over `count` consecutive seeds starting at
/// `first_seed`, with `base` supplying everything but the seed.
[[nodiscard]] SoakResult run_fault_soak(std::uint64_t first_seed,
                                        std::uint32_t count,
                                        FaultHarnessConfig base = {});

}  // namespace wirecap::testing
