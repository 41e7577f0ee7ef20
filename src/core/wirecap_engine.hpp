// The WireCAP capture engine (§3) — the paper's primary contribution.
//
// Architecture (Figure 6): a kernel-mode driver per receive queue
// (driver/wirecap_driver.hpp) implementing the ring-buffer-pool
// mechanism, plus this user-mode engine which runs, per queue:
//
//   * a *capture thread* on its own core, executing the low-level
//     capture and recycle ioctls and the offloading policy;
//   * a *work-queue pair*: the capture queue carries captured-chunk
//     metadata to the application; the recycle queue carries used-chunk
//     metadata back;
//   * a *buddy list*: receive queues of one application form a buddy
//     group; when this queue's capture queue exceeds the offloading
//     threshold T, newly captured chunks are placed on the least busy
//     buddy's capture queue instead (advanced mode, Figure 7b).
//
// Basic mode (no threshold) handles each queue independently: lossless
// for short-term bursts up to ~R*M packets, but helpless against
// long-term overload.  Advanced mode adds the buddy-group offloading
// that Figure 11 shows recovering that case.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/handoff.hpp"
#include "common/mpmc_queue.hpp"
#include "common/spsc_ring.hpp"
#include "common/steal_inbox.hpp"
#include "driver/wirecap_driver.hpp"
#include "engines/engine.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/latency.hpp"

namespace wirecap::core {

/// How an overloaded capture thread picks the buddy to offload to.
/// The paper's design targets "an idle or less busy receive queue"
/// (least-busy); the alternatives exist for the ablation benchmarks.
enum class OffloadPolicy : std::uint8_t {
  kLeastBusy,    // shortest buddy capture queue (the paper's policy)
  kRandomBuddy,  // uniform random buddy
  kRoundRobin,   // cycle through buddies
};

[[nodiscard]] constexpr const char* to_string(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kLeastBusy: return "least-busy";
    case OffloadPolicy::kRandomBuddy: return "random";
    case OffloadPolicy::kRoundRobin: return "round-robin";
  }
  return "least-busy";
}

// CLI-boundary parser.  Engine configs carry the enum; only argv
// handling converts strings, and an unknown value fails fast with the
// allowed set spelled out.
[[nodiscard]] inline OffloadPolicy parse_offload_policy(
    std::string_view text) {
  if (text == "least-busy") return OffloadPolicy::kLeastBusy;
  if (text == "random") return OffloadPolicy::kRandomBuddy;
  if (text == "round-robin") return OffloadPolicy::kRoundRobin;
  throw std::invalid_argument("unknown offload policy \"" +
                              std::string(text) +
                              "\" (allowed: least-busy, random, round-robin)");
}

struct WirecapConfig {
  /// M — cells per chunk == descriptors per segment.
  std::uint32_t cells_per_chunk = 256;
  /// R — chunks per ring buffer pool.
  std::uint32_t chunk_count = 100;
  /// T — offloading percentage threshold in (0, 1]; nullopt runs the
  /// engine in basic mode (no offloading).
  std::optional<double> offload_threshold;
  /// Chunks moved per capture ioctl invocation.
  std::size_t max_chunks_per_capture = 16;
  /// Offload target selection (ablation; default is the paper's).
  OffloadPolicy offload_policy = OffloadPolicy::kLeastBusy;
  /// NUMA node the NIC's DMA engine writes into (two-socket boxes).
  std::uint32_t nic_numa_node = 0;
  /// Per-queue NUMA placement of each queue's capture thread and ring
  /// buffer pool; empty places every queue on nic_numa_node.  A queue
  /// on a different node than the NIC pays numa_remote_capture_cost per
  /// captured chunk; an offload whose target sits on a different node
  /// than the dispatcher pays numa_remote_handoff_cost.
  std::vector<std::uint32_t> queue_numa_node;
};

struct WirecapQueueExtraStats {
  std::uint64_t capture_queue_high_water = 0;
  /// Peak depth of `pending` — chunks captured but parked because no
  /// capture queue had room (the Type-II overflow signal of §3.3); also
  /// sampled periodically by the telemetry sampler.
  std::uint64_t pending_high_water = 0;
  std::uint64_t polls = 0;
  /// Offload handoff outcomes (engine.<q>.handoff.*).
  /// A buddy's deposit into this queue's steal inbox succeeded:
  std::uint64_t handoff_steals = 0;
  /// ... or lost a CAS race mid-deposit (counted on the dispatching
  /// queue; the loser falls home rather than retrying):
  std::uint64_t handoff_contended = 0;
  /// ... or could not place remotely at all (inbox full or buddy
  /// closed) and the chunk fell back to the home queue:
  std::uint64_t handoff_fallbacks = 0;
  /// Offload handoffs whose target queue sits on a different NUMA node
  /// than the dispatching queue (each paid numa_remote_handoff_cost).
  std::uint64_t numa_remote_handoffs = 0;
};

class WirecapEngine final : public engines::CaptureEngine {
 public:
  /// The engine creates one dedicated capture core per opened queue
  /// (the paper: "the system can dedicate one or several cores to run
  /// all capture threads").
  WirecapEngine(sim::Scheduler& scheduler, nic::MultiQueueNic& nic,
                WirecapConfig config, sim::CostModel costs = {});

  [[nodiscard]] std::string_view name() const override {
    return config_.offload_threshold ? "WireCAP-A" : "WireCAP-B";
  }
  [[nodiscard]] const WirecapConfig& config() const { return config_; }

  /// Registers (or upserts) a tenant: wires its queues into one buddy
  /// group (each member's buddy list becomes the group minus itself —
  /// offloading never crosses tenants), applies the spec's quota, and
  /// releases queues the spec claims from any previous owner.  Member
  /// queues must already be open (std::logic_error otherwise).
  engines::TenantId register_tenant(const engines::TenantSpec& spec) override;

  /// Quota-side account of `tenant`, built on each call: the quota from
  /// its spec, the charge from its open queues' pools, and the capture
  /// polls skipped at quota.
  [[nodiscard]] engines::TenantAccount tenant_account(
      engines::TenantId tenant) const;

  // --- CaptureEngine interface ---
  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  /// Closes `queue` and invalidates every chunk its pool owns: the
  /// work-queue pair and `pending` are drained back to their owning
  /// pools, chunks this queue offloaded to buddies are pulled off their
  /// capture queues and recycled, and the queue's epoch is bumped so a
  /// late done()/TX completion on a chunk captured before the close is
  /// dropped instead of recycling stale metadata into a future pool.
  /// CaptureViews obtained before close() must not be dereferenced
  /// afterwards (their cells belong to the torn-down pool).
  void close(std::uint32_t queue) override;
  std::optional<engines::CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const engines::CaptureView& view) override;
  /// Chunk-native handoff: pops one ChunkMeta off the capture queue and
  /// serves views of all its cells without copying — the spool consumes
  /// whole chunks exactly as the capture ioctl produced them.  If the
  /// application left a chunk partially read via try_next() or
  /// try_next_batch(), its remaining packets form the returned chunk (so
  /// the read APIs compose).  `max_packets` is ignored: the chunk size
  /// is M.
  std::optional<engines::ChunkCaptureView> try_next_chunk(
      std::uint32_t queue, std::size_t max_packets = 64) override;
  /// Batch-native handoff: serves up to `max_packets` views of the
  /// queue's current chunk metadata-only (chunk == batch when
  /// `max_packets` >= M) and bumps `delivered` once per batch.  A batch
  /// never spans chunks, so it carries one BatchRef and done_batch() is
  /// one refcount decrement.
  std::size_t try_next_batch(std::uint32_t queue, std::size_t max_packets,
                             engines::PacketBatch& batch) override;
  [[nodiscard]] bool supports_batch_shares() const override { return true; }
  /// Fan-out support: raises each chunk's outstanding refcount by
  /// `extra` releases per batch packet and mirrors the grant into the
  /// pool's kernel-side share count (recycle refuses a chunk whose
  /// shares have not all been released — defense in depth against an
  /// engine bug releasing a fanned-out chunk early).
  void add_batch_shares(std::uint32_t queue, const engines::PacketBatch& batch,
                        std::uint32_t extra) override;
  bool forward(std::uint32_t queue, const engines::CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] engines::EngineQueueStats queue_stats(
      std::uint32_t queue) const override;

  /// Base metrics plus, per open queue: capture/pending queue depths and
  /// high waters, pool free-chunk gauge, the full driver stats, and the
  /// capture core's utilization.  Also hands the tracer to the drivers
  /// and registers the depth-sampling probe.
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix,
                      std::uint32_t num_queues) override;

  /// Telemetry-sampler probe: folds the current capture-queue and
  /// pending depths of every open queue into the high-water marks.
  void sample_depths(Nanos now);

  /// Registers a probe reporting `queue`'s capture-to-disk spool backlog
  /// (chunks accepted by the spool shard but not yet written out).
  /// dispatch() adds it to the capture-queue depth when computing the
  /// fill level compared against T and when ranking buddies, so a queue
  /// whose disk shard falls behind sheds chunks to buddies before its
  /// capture queue alone would trip the threshold.  Null clears; the
  /// probe must stay valid until cleared or the engine is destroyed.
  void set_spool_backlog_probe(std::uint32_t queue,
                               std::function<std::size_t()> probe);

  // --- introspection ---
  [[nodiscard]] const driver::WirecapDriverStats& driver_stats(
      std::uint32_t queue) const;
  [[nodiscard]] const WirecapQueueExtraStats& extra_stats(
      std::uint32_t queue) const;
  [[nodiscard]] const driver::RingBufferPool& pool(std::uint32_t queue) const;

  /// Utilization of the queue's dedicated capture-thread core in [0,1].
  [[nodiscard]] double capture_core_utilization(std::uint32_t queue) const;

  /// Total pool memory across opened queues (the Fig. 14 memory-pressure
  /// input).
  [[nodiscard]] std::uint64_t total_pool_bytes() const;

  /// Registers an observer handed to every queue's RingBufferPool —
  /// pools already open get it immediately, pools created by later
  /// open() calls get it at creation.  Used by the lifecycle auditor
  /// (src/testing); null clears.
  void set_pool_observer(driver::PoolObserver* observer);

  /// Where every captured chunk of `ring`'s pool currently lives inside
  /// the engine.  The locations are disjoint, so for a quiesced engine
  /// (no capture poll mid-flight):
  ///   pool(ring).state_counts().captured == census.total()
  /// — the conservation law the lifecycle auditor asserts.
  struct CapturedCensus {
    std::uint64_t in_capture_queues = 0;  ///< dispatched, not yet dequeued
    std::uint64_t in_pending = 0;         ///< parked, awaiting re-dispatch
    std::uint64_t in_recycle_queue = 0;   ///< released, awaiting recycle
    std::uint64_t outstanding = 0;        ///< held by applications / TX
    [[nodiscard]] std::uint64_t total() const {
      return in_capture_queues + in_pending + in_recycle_queue + outstanding;
    }
  };
  [[nodiscard]] CapturedCensus captured_census(std::uint32_t ring) const;

  /// Per-tenant conservation inputs, summed over the tenant's *open*
  /// member queues.  For a quiesced engine all three agree:
  ///   account_charged == pool_captured == engine_census
  /// — the tenant extension of the conservation law.  account_charged
  /// is the quota budget capture throttles on (the pools' O(1)
  /// captured_chunks() counters); pool_captured the O(R) recount of
  /// their chunk states; engine_census the sum of captured_census()
  /// totals.
  struct TenantCensus {
    std::uint64_t account_charged = 0;
    std::uint64_t pool_captured = 0;
    std::uint64_t engine_census = 0;
  };
  [[nodiscard]] TenantCensus tenant_census(engines::TenantId tenant) const;

 private:
  struct CurrentChunk {
    driver::ChunkMeta meta;
    std::uint32_t cursor = 0;  // next cell within [0, pkt_count)
  };

  struct Outstanding {
    driver::ChunkMeta meta;
    std::uint32_t remaining = 0;  // undelivered done()/TX completions
    /// Owning queue's epoch when the chunk was dequeued; a mismatch at
    /// final release means the queue closed in between and the metadata
    /// must be dropped, not recycled.
    std::uint64_t epoch = 0;
    /// Fan-out shares granted on this chunk (add_batch_shares); the
    /// pool's kernel-side share count is cleared by this amount when
    /// the last reference goes, immediately before the recycle.
    std::uint32_t shares = 0;
  };

  struct QueueState {
    bool open = false;
    /// Bumped by close(); distinguishes chunks of the current pool from
    /// chunks of pools torn down by earlier close() calls.
    std::uint64_t epoch = 0;
    std::unique_ptr<driver::WirecapQueueDriver> driver;
    std::unique_ptr<sim::SimCore> capture_core;
    /// The capture queue: an SPSC ring (home dispatch → the one bound
    /// app thread) plus the inbox buddies deposit offloaded chunks into.
    std::unique_ptr<SpscRing<driver::ChunkMeta>> capture_ring;
    std::unique_ptr<StealInbox<driver::ChunkMeta>> steal_inbox;
    /// The pool free-list: any app thread may release a chunk, so the
    /// recycle queue stays multi-producer.
    std::unique_ptr<MpmcQueue<driver::ChunkMeta>> recycle_queue;
    std::deque<driver::ChunkMeta> pending;  // couldn't be enqueued yet
    std::vector<std::uint32_t> buddies;
    /// Owning tenant (kNoTenant until a spec claims this queue).
    engines::TenantId tenant = engines::kNoTenant;
    /// NUMA node of this queue's capture thread + pool, fixed at
    /// construction from WirecapConfig (pools created by open() are
    /// placed here).
    std::uint32_t numa_node = 0;
    /// Per-queue offload-policy state.  Engine-global state here skewed
    /// round-robin toward low indices with heterogeneous buddy lists and
    /// correlated the xorshift streams across queues; open() seeds the
    /// RNG from the queue id (never zero — xorshift fixes 0 forever).
    std::uint32_t offload_rr = 0;
    std::uint64_t offload_rng = 0x9E3779B97F4A7C15ULL;
    std::optional<CurrentChunk> current;
    std::function<void()> data_callback;
    /// Spool-shard backlog probe (see set_spool_backlog_probe).
    std::function<std::size_t()> spool_backlog;
    engines::EngineQueueStats stats;
    WirecapQueueExtraStats extra;
    /// One journey record per pool chunk, indexed by chunk_id and reset
    /// at capture — the latency layer's per-chunk scratchpad.  Sized at
    /// open(); only written while LatencyTracker::enabled().
    std::vector<telemetry::ChunkJourney> journeys;
  };

  // Outstanding-map keys and application handles carry the owning
  // queue's epoch (mod 256) alongside {ring, chunk}, so a handle minted
  // before a close() can never alias an entry for the same chunk id
  // captured after a reopen.
  [[nodiscard]] static constexpr std::uint64_t chunk_key(
      std::uint32_t ring_id, std::uint32_t chunk_id, std::uint64_t epoch) {
    return (static_cast<std::uint64_t>(ring_id) << 40) |
           ((epoch & 0xFF) << 32) | chunk_id;
  }
  [[nodiscard]] static constexpr std::uint64_t make_handle(
      std::uint32_t ring_id, std::uint64_t epoch, std::uint32_t chunk_id,
      std::uint32_t cell) {
    return (static_cast<std::uint64_t>(ring_id) << 56) |
           ((epoch & 0xFF) << 48) |
           (static_cast<std::uint64_t>(chunk_id) << 24) | cell;
  }
  [[nodiscard]] static constexpr std::uint32_t handle_ring(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 56);
  }
  [[nodiscard]] static constexpr std::uint64_t handle_epoch(std::uint64_t h) {
    return (h >> 48) & 0xFF;
  }
  [[nodiscard]] static constexpr std::uint32_t handle_chunk(std::uint64_t h) {
    return static_cast<std::uint32_t>((h >> 24) & 0xFFFFFF);
  }
  [[nodiscard]] static constexpr std::uint64_t handle_key(std::uint64_t h) {
    return chunk_key(handle_ring(h), handle_chunk(h), handle_epoch(h));
  }

  void poll(std::uint32_t queue);
  /// Places a captured chunk on a capture queue per the offloading
  /// policy; on failure parks it in `pending`.  Returns the modeled
  /// handoff cost the capture thread paid for poll() to accumulate.
  Nanos dispatch(std::uint32_t queue, const driver::ChunkMeta& meta);
  /// Pops the next chunk bound for `qs`'s application: the SPSC ring,
  /// then the steal inbox.
  std::optional<driver::ChunkMeta> pop_capture(QueueState& qs);
  /// Capture-side depth: ring plus inbox.
  [[nodiscard]] std::size_t capture_depth(const QueueState& qs) const;
  /// Snapshot of every chunk queued toward `qs`'s application (census /
  /// quiesced introspection only).
  [[nodiscard]] std::vector<driver::ChunkMeta> capture_metas(
      const QueueState& qs) const;
  /// The dequeue half of every read API: makes the next non-empty
  /// queued chunk `qs.current` and registers its refcount.  Empty
  /// captures go straight home.  False when nothing is queued.
  bool acquire_chunk(std::uint32_t queue, QueueState& qs);
  /// Fills `views` with the next views.size() packets of `qs.current`,
  /// which must not exceed its unread remainder, advances the cursor
  /// and counts them delivered; the chunk is forgotten once fully
  /// served.
  void serve_views(QueueState& qs, std::span<engines::CaptureView> views);
  void release_ref(std::uint32_t queue, std::uint64_t handle,
                   std::uint32_t count) override;
  void deref(std::uint64_t key) { deref_n(key, 1); }
  /// Drops `count` references of the chunk behind `key` in one step —
  /// the done_batch() fast path.
  void deref_n(std::uint64_t key, std::uint32_t count);
  /// Forgets a queue's partially-read current chunk: releases the
  /// undelivered packets' share of its refcount (close-time teardown).
  void drop_current(QueueState& qs);
  /// Registers `queue`'s per-queue metrics (depths, pool, driver stats)
  /// and hands the tracer to its driver.  Reopen-safe: every binding
  /// resolves through QueueState at sample time.  No-op until
  /// bind_telemetry() has supplied the registry.
  void bind_queue_telemetry(std::uint32_t queue);
  /// Publishes `<prefix>.tenant.<id>.*` (charged, quota, quota_stalls,
  /// delivered, queues); same late-binding rules as queue telemetry.
  void bind_tenant_telemetry(engines::TenantId tenant);
  /// Rebuilds every queue's tenant membership and buddy list from the
  /// base-class registry — one idempotent pass that handles upserts and
  /// cross-tenant queue releases alike.  Budgets need no rebuild: a
  /// charge is read from whichever pools the tenant owns now.
  void rebuild_tenant_wiring();
  /// Captured chunks `tenant` holds: the sum of captured_chunks() over
  /// its open member queues' pools.
  [[nodiscard]] std::uint64_t tenant_charged(engines::TenantId tenant) const;
  /// Capture headroom `queue`'s tenant quota leaves (SIZE_MAX when
  /// unlimited; the pools are summed only under a nonzero quota).
  [[nodiscard]] std::size_t quota_headroom(const QueueState& qs) const;

  // Journey stamping, one call per lifecycle transition.  Callers gate
  // on `latency_ && latency_->enabled()` so the disabled hot path pays
  // one predicted branch per site (the EventTracer pattern).
  void journey_capture(const driver::ChunkMeta& meta, bool rescued);
  void journey_enqueue(const driver::ChunkMeta& meta, bool stolen);
  void journey_dequeue(const driver::ChunkMeta& meta, std::uint32_t queue);
  void journey_release(const driver::ChunkMeta& meta);

  sim::Scheduler& scheduler_;
  nic::MultiQueueNic& nic_;
  WirecapConfig config_;
  sim::CostModel costs_;
  std::vector<QueueState> queues_;
  /// Capture polls skipped at quota, indexed by TenantId (parallel to
  /// tenants()).
  std::vector<std::uint64_t> quota_stalls_;
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  /// Scratch for poll()'s batched recycle drain and its captured chunks
  /// (reused across polls; poll() never re-enters itself).
  std::vector<driver::ChunkMeta> recycle_scratch_;
  std::vector<driver::ChunkMeta> capture_scratch_;
  driver::PoolObserver* pool_observer_ = nullptr;
  // Telemetry context retained so queues opened after bind_telemetry()
  // still publish their per-queue metrics.
  telemetry::Telemetry* telemetry_ = nullptr;
  std::string telemetry_prefix_;
  /// Set by bind_telemetry(); null keeps the engine at its unbound
  /// baseline (no journey branches taken).
  telemetry::LatencyTracker* latency_ = nullptr;
};

}  // namespace wirecap::core
