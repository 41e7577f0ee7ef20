// The capture-engine interface shared by WireCAP and the baseline
// engines (PF_RING, DNA, NETMAP, PSIOE).
//
// An engine instance manages one NIC.  The application side is a
// per-queue, non-blocking read API: try_next() yields a zero-copy (or,
// for copying engines, engine-buffered) view of the next packet; the
// application finishes with done() or forwards with forward().
//
// Engines charge their internal CPU work (NAPI copies, capture-thread
// ioctls) to the appropriate simulated cores themselves; the per-packet
// *application-side* overhead an engine imposes (ring syncs, user-space
// copies) is reported via app_overhead_per_packet() and charged by the
// application actor together with its own processing cost.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "engines/packet_view.hpp"
#include "engines/tenant.hpp"
#include "nic/device.hpp"
#include "sim/core.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::engines {

struct EngineQueueStats {
  /// Packets handed to the application.
  std::uint64_t delivered = 0;
  /// Packets captured off the wire but lost before delivery (Type-I
  /// intermediate-buffer overflow) — the paper's "packet delivery drop".
  std::uint64_t delivery_dropped = 0;
  /// Per-packet copy operations performed anywhere on the path.
  std::uint64_t copies = 0;
  /// Chunks this queue's capture thread redirected to buddies / chunks
  /// that arrived from buddies (WireCAP advanced mode only).
  std::uint64_t chunks_offloaded_out = 0;
  std::uint64_t chunks_offloaded_in = 0;
};

class CaptureEngine {
 public:
  virtual ~CaptureEngine() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Opens `queue` for capture.  The application thread that will
  /// consume this queue runs on `app_core`; engines doing kernel-context
  /// work on the application's core (NAPI) charge it there.
  virtual void open(std::uint32_t queue, sim::SimCore& app_core) = 0;

  virtual void close(std::uint32_t queue) = 0;

  /// Registers (or, for an existing `spec.name`, replaces) a tenant:
  /// one application owning a disjoint set of this NIC's queues — its
  /// buddy/peer group — plus a chunk quota (see engines/tenant.hpp).
  /// Queues the spec claims are released from any previous owner.
  /// Returns the tenant's dense id.  Throws std::invalid_argument on an
  /// empty name or an empty or duplicate-carrying queue list.  The base
  /// implementation only maintains the registry; engines override to
  /// wire the group into their offload/peer machinery (and may add
  /// preconditions, e.g. WireCAP requires the queues to be open).
  virtual TenantId register_tenant(const TenantSpec& spec);

  /// Registered tenant specs, indexed by TenantId.
  [[nodiscard]] const std::vector<TenantSpec>& tenants() const {
    return tenants_;
  }

  /// The tenant owning `queue`, or kNoTenant.
  [[nodiscard]] TenantId tenant_of(std::uint32_t queue) const;

  /// Non-blocking read of the next packet of `queue`.
  virtual std::optional<CaptureView> try_next(std::uint32_t queue) = 0;

  /// The application is finished with the packet.
  virtual void done(std::uint32_t queue, const CaptureView& view) = 0;

  /// Non-blocking read of the next whole chunk of `queue` for
  /// chunk-granularity consumers.  The base implementation synthesizes a
  /// pseudo-chunk by draining up to `max_packets` try_next() views, so
  /// every engine can feed the spool; chunk-native engines (WireCAP)
  /// override it to hand over one ring-buffer-pool chunk zero-copy.
  virtual std::optional<ChunkCaptureView> try_next_chunk(
      std::uint32_t queue, std::size_t max_packets = 64);

  /// Releases every packet of a chunk obtained from try_next_chunk().
  virtual void done_chunk(std::uint32_t queue, const ChunkCaptureView& chunk);

  /// Non-blocking batch read: fills `batch` with up to `max_packets`
  /// views from `queue` and returns the number delivered (0 when the
  /// queue is empty).  `batch` is cleared first and its storage is
  /// reused across calls, so a steady-state read loop allocates
  /// nothing.  The base implementation adapts per-packet try_next() in
  /// a loop so copying baselines stay honest about their per-packet
  /// cost structure; chunk-native engines (WireCAP) override it to
  /// surface one captured chunk's worth of views metadata-only, with
  /// accounting amortized to one update per batch.  Either way
  /// `batch.refs` records the batch's original extent, so releasing is
  /// independent of later in-place compaction of `batch.views`.
  virtual std::size_t try_next_batch(std::uint32_t queue,
                                     std::size_t max_packets,
                                     PacketBatch& batch);

  /// Releases a batch obtained from try_next_batch() in one call.
  /// Settles `batch.refs` — the extent recorded at read time — so a
  /// batch whose views were compacted in place (a pipeline stage
  /// dropping packets, even down to zero) still releases every buffer
  /// exactly once.  Views released out of band (forward()) must be
  /// subtracted via PacketBatch::note_released() first.  The refs are
  /// the only release obligation: a batch with views but no refs is a
  /// caller bug and throws std::logic_error (nothing is released).
  virtual void done_batch(std::uint32_t queue, const PacketBatch& batch);

  /// True when the engine implements add_batch_shares() natively (the
  /// pipeline FanOut then lets subscribers release independently;
  /// otherwise it falls back to holding the original batch itself).
  [[nodiscard]] virtual bool supports_batch_shares() const { return false; }

  /// Grants `extra` additional release shares for every ref of `batch`:
  /// after this call the buffers behind the batch tolerate (1 + extra)
  /// full releases — one per done_batch() on the original and on each
  /// of `extra` ref-copies handed to fan-out subscribers — and recycle
  /// only on the last.  Must be called while the original batch is
  /// still unreleased.  Throws std::logic_error on engines without
  /// native support (check supports_batch_shares()).
  virtual void add_batch_shares(std::uint32_t queue, const PacketBatch& batch,
                                std::uint32_t extra);

  /// Forwards the packet out `tx_queue` of `out_nic`, releasing the
  /// underlying buffer when transmission completes (zero-copy where the
  /// engine supports it).  Implies done().  Returns false when the TX
  /// ring is full (the packet is then released unsent).
  virtual bool forward(std::uint32_t queue, const CaptureView& view,
                       nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) = 0;

  /// Per-packet cost the *application* pays to use this engine's read
  /// path (ring sync, user-space copy), in addition to its own work.
  [[nodiscard]] virtual Nanos app_overhead_per_packet() const {
    return Nanos::zero();
  }

  /// Fires whenever new data may be available on `queue` (edge
  /// trigger); the application actor uses it to wake from idle.
  virtual void set_data_callback(std::uint32_t queue,
                                 std::function<void()> fn) = 0;

  [[nodiscard]] virtual EngineQueueStats queue_stats(
      std::uint32_t queue) const = 0;

  /// Publishes this engine's metrics into `telemetry.registry` under
  /// `prefix` (e.g. "engine.wirecap_a") and stores the tracer for
  /// hot-path event emission.  The base implementation binds every
  /// EngineQueueStats field of queues [0, num_queues) as
  /// "<prefix>.q<N>.<field>"; engines override to add engine-specific
  /// gauges (pool occupancy, capture-queue depth, ...) on top.
  /// The engine must outlive the registry's last snapshot.
  virtual void bind_telemetry(telemetry::Telemetry& telemetry,
                              const std::string& prefix,
                              std::uint32_t num_queues);

  /// Sums queue_stats over all opened queues.
  [[nodiscard]] EngineQueueStats total_stats(std::uint32_t num_queues) const {
    EngineQueueStats total;
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      const EngineQueueStats s = queue_stats(q);
      total.delivered += s.delivered;
      total.delivery_dropped += s.delivery_dropped;
      total.copies += s.copies;
      total.chunks_offloaded_out += s.chunks_offloaded_out;
      total.chunks_offloaded_in += s.chunks_offloaded_in;
    }
    return total;
  }

 protected:
  /// Releases `count` references of the buffers behind `handle` — the
  /// settlement primitive done_batch() applies per ref.  The base
  /// implementation synthesizes a handle-only view and loops done()
  /// (every engine's done() keys off `view.handle` alone); it only ever
  /// sees count == 1 because the base try_next_batch() mints one ref
  /// per view.  WireCAP overrides it with one chunk-refcount decrement
  /// of `count`.
  virtual void release_ref(std::uint32_t queue, std::uint64_t handle,
                           std::uint32_t count);

  /// Set by bind_telemetry; null (the default) keeps every trace site at
  /// its single-branch disabled cost.
  telemetry::EventTracer* tracer_ = nullptr;

  /// Tenant registry maintained by the base register_tenant(); indexed
  /// by TenantId.  Disjointness invariant: no queue appears in more
  /// than one spec.
  std::vector<TenantSpec> tenants_;
};

}  // namespace wirecap::engines
