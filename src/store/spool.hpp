// Capture-to-disk spool: per-capture-thread shards writing indexed
// pcapng segments.
//
// The spool consumes whole ring-buffer-pool chunks (zero-copy
// ChunkCaptureView handoff from the engine) into per-shard bounded
// queues; a simulated disk drains each queue in virtual time at a
// calibrated cost (sim::CostModel's disk_* fields).  Segment files
// rotate on size/span and end in a footer index (segment_index.hpp)
// that the StoreReader uses to skip segments.
//
// Backpressure when a shard's queue fills is a policy choice:
//   * kBlock       — the shard stops accepting; chunks back up into the
//                    engine's capture queue, where the buddy-group
//                    offloading threshold T sees them (lossless).
//   * kDropNewest  — arriving chunks are discarded, counted.
//   * kDropOldest  — the oldest queued chunk is discarded to make room.
//
// SegmentWriter is deliberately free of any simulation dependency so
// real-thread users (examples/live_capture) can spool with it directly.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "engines/engine.hpp"
#include "net/pcapng.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"
#include "store/segment_index.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::store {

enum class BackpressurePolicy : std::uint8_t {
  kBlock,
  kDropNewest,
  kDropOldest,
};

[[nodiscard]] constexpr const char* to_string(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock: return "block";
    case BackpressurePolicy::kDropNewest: return "drop-newest";
    case BackpressurePolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

struct SpoolConfig {
  std::filesystem::path dir;
  std::uint32_t num_shards = 1;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Bound on each shard's queue of accepted-but-unwritten chunks.
  std::size_t queue_capacity_chunks = 64;
  /// Segment rotation thresholds (whichever trips first).
  std::uint64_t segment_max_bytes = 8ull << 20;
  Nanos segment_max_span = Nanos::from_millis(100.0);
  std::uint32_t snaplen = 65535;
  /// Distinct flows tallied per segment index before the remainder is
  /// lumped into unindexed_packets.
  std::size_t flow_index_cap = 32;
  /// Record the engine seq of every dropped/evicted packet (conservation
  /// audits); costs memory proportional to losses.
  bool record_lost_seqs = false;
  /// Drain chunks through the writev-shaped gather path (one rotation
  /// check and one vectored commit per chunk).  Off, the drain issues
  /// one write per packet and pays disk_packet_write_cost for each.
  bool vectored_drain = true;
  /// Bits per segment footer flow Bloom filter (rounded up to a power
  /// of two); 0 disables the bloom, leaving only the exact flow tally.
  std::size_t flow_bloom_bits = 8192;
};

struct ShardStats {
  std::uint64_t chunks_enqueued = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t packets_written = 0;
  /// File bytes, including pcapng framing.
  std::uint64_t bytes_written = 0;
  std::uint64_t chunks_dropped_newest = 0;
  std::uint64_t packets_dropped_newest = 0;
  std::uint64_t chunks_dropped_oldest = 0;
  std::uint64_t packets_dropped_oldest = 0;
  /// Chunks pulled back before a ring close (evict_ring) or at a
  /// non-drained close().
  std::uint64_t chunks_evicted = 0;
  std::uint64_t packets_evicted = 0;
  std::uint64_t segments_opened = 0;
  std::uint64_t queue_high_water = 0;
  /// Chunks accepted past the queue bound under kBlock: producers are
  /// expected to gate on accepting(), so this staying 0 is the sign the
  /// blocking handshake works (a chunk is never lost either way).
  std::uint64_t block_overruns = 0;
  /// Writes deferred because the simulated disk reported full.
  std::uint64_t full_stalls = 0;
  /// Outstanding writes released early by close()/evict_ring(): their
  /// bytes were already on disk, only the completion event was pending.
  std::uint64_t in_flight_settled = 0;
  /// Most writes simultaneously outstanding (bounded by the disk queue
  /// depth).
  std::uint64_t in_flight_high_water = 0;
};

/// Rotating, indexed pcapng segment writer for one shard.  No simulation
/// dependency: write() performs real file I/O immediately.
class SegmentWriter {
 public:
  struct Options {
    std::uint32_t snaplen = 65535;
    std::uint64_t segment_max_bytes = 8ull << 20;
    Nanos segment_max_span = Nanos::from_millis(100.0);
    std::size_t flow_index_cap = 32;
    /// Bits in the per-segment flow Bloom filter; 0 disables it.
    std::size_t flow_bloom_bits = 8192;
  };

  SegmentWriter(std::filesystem::path dir, std::uint32_t shard_id,
                Options options);
  ~SegmentWriter();

  /// Appends one packet, rotating first if the current segment is over
  /// a threshold.  Returns the number of rotations performed (0 or 1).
  std::uint32_t write(Nanos timestamp, std::span<const std::byte> data,
                      std::uint32_t wire_len, std::uint64_t packet_id);

  /// Appends a whole chunk through the vectored gather path: one
  /// rotation check for the batch (against its min/max timestamp, so a
  /// segment may overshoot the thresholds by at most one chunk), then a
  /// single writev-shaped commit of every packet.  Returns the number
  /// of rotations performed (0 or 1).
  std::uint32_t write_chunk(std::span<const engines::CaptureView> packets);

  /// Finalizes the current segment (footer index + close).  Idempotent.
  void finish();

  [[nodiscard]] std::uint32_t shard_id() const { return shard_id_; }
  [[nodiscard]] std::uint64_t segments_opened() const {
    return segments_opened_;
  }
  [[nodiscard]] std::uint64_t packets_written() const {
    return packets_written_;
  }
  /// Total file bytes across all segments of this shard.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Segment file name, e.g. "shard002-seg000017.pcapng".
  [[nodiscard]] static std::string segment_name(std::uint32_t shard_id,
                                                std::uint32_t seq);
  /// Inverse of segment_name(); nullopt for foreign files.
  [[nodiscard]] static std::optional<std::pair<std::uint32_t, std::uint32_t>>
  parse_segment_name(const std::string& name);

 private:
  void open_segment();
  void close_segment();
  /// Folds one (snapped) packet into the open segment's index: counts,
  /// timestamp extent, exact flow tally, bloom.
  void note_packet(Nanos timestamp, std::span<const std::byte> snapped);

  std::filesystem::path dir_;
  std::uint32_t shard_id_;
  Options options_;
  std::unique_ptr<net::PcapngWriter> writer_;
  SegmentIndex index_;                 // of the open segment
  std::unordered_map<net::FlowKey, std::uint64_t> flow_tally_;
  std::vector<net::GatherSlice> gather_slices_;  // reused per chunk
  std::uint32_t next_seq_ = 0;
  std::uint64_t segments_opened_ = 0;
  std::uint64_t packets_written_ = 0;
  std::uint64_t finished_bytes_ = 0;   // bytes of closed segments
};

/// One spool shard: bounded chunk queue + virtual-time disk drain.
class SpoolShard {
 public:
  /// Called with the chunk once its packets are on disk or dropped; the
  /// producer releases the chunk back to the engine here.
  using Release = std::function<void(const engines::ChunkCaptureView&)>;

  SpoolShard(sim::Scheduler& scheduler, const sim::CostModel& costs,
             const SpoolConfig& config, std::uint32_t shard_id);

  /// Hands one chunk to the shard; `release` is guaranteed to run
  /// exactly once (after the write completes, or immediately on a
  /// drop).  When the queue is full the policy decides: kDropNewest
  /// discards `chunk`, kDropOldest discards the oldest queued chunk,
  /// and kBlock enqueues past the bound but counts a block_overrun —
  /// blocking producers must gate on accepting() instead of offering.
  void offer(engines::ChunkCaptureView chunk, Release release);

  /// True while the queue has room (kBlock producers gate on this).
  [[nodiscard]] bool accepting() const {
    return queue_.size() < config_.queue_capacity_chunks;
  }

  /// Chunks accepted but not yet released — queued plus every write
  /// still outstanding on the simulated disk.  The engine's
  /// offload-feedback probe (set_spool_backlog_probe) reads this.
  [[nodiscard]] std::size_t backlog() const {
    return queue_.size() + in_flight_.size();
  }

  /// Drops every queued chunk whose cells belong to `ring`'s pool and
  /// settles every outstanding write from that ring (bytes already hit
  /// the file at submit time; the release must fire now, not from a
  /// deferred completion into a torn-down pool).  MUST be called before
  /// engine close(ring): queued views dangle once the pool is gone.
  void evict_ring(std::uint32_t ring);

  /// Simulated-disk faults: multiply write costs until `until`, or
  /// refuse writes entirely (ENOSPC) until `until`.
  void set_slow_disk(double factor, Nanos until);
  void set_disk_full(Nanos until);

  /// Fires whenever a write completes (queue space may have opened).
  void set_drain_callback(std::function<void()> fn) {
    drain_callback_ = std::move(fn);
  }

  /// Settles outstanding writes (their bytes are already on disk, so
  /// the chunks are released immediately), evicts anything still
  /// queued, then finalizes the segment writer.
  void close();

  [[nodiscard]] const ShardStats& stats() const { return stats_; }
  /// Offer-to-release latency of every drained chunk (the disk leg of
  /// the end-to-end latency pipeline).  Dropped/evicted chunks are not
  /// recorded — they never drained.
  [[nodiscard]] const telemetry::HdrHistogram& drain_latency() const {
    return drain_latency_;
  }
  [[nodiscard]] std::uint32_t shard_id() const { return shard_id_; }
  [[nodiscard]] BackpressurePolicy policy() const { return config_.policy; }
  /// Engine seqs of dropped/evicted packets (record_lost_seqs only).
  [[nodiscard]] const std::vector<std::uint64_t>& lost_seqs() const {
    return lost_seqs_;
  }

 private:
  struct Queued {
    engines::ChunkCaptureView chunk;
    Release release;
    /// When offer() accepted the chunk; anchors drain latency.
    Nanos offered_at = Nanos::zero();
  };

  /// One outstanding disk write.  Identified by op_id so a completion
  /// event scheduled for an op that close()/evict_ring() already
  /// settled finds nothing and no-ops instead of double-releasing.
  struct InFlight {
    std::uint64_t op_id = 0;
    Queued item;
  };

  void maybe_start_write();
  void start_write();
  void complete_write(std::uint64_t op_id);
  /// Releases one outstanding write early (close/evict): the bytes hit
  /// the file at submit time, only the completion latency was pending.
  void settle(InFlight&& op);
  void discard(Queued&& item, std::uint64_t ShardStats::*chunk_counter,
               std::uint64_t ShardStats::*packet_counter);

  sim::Scheduler& scheduler_;
  const sim::CostModel& costs_;
  SpoolConfig config_;
  std::uint32_t shard_id_;
  SegmentWriter writer_;
  std::deque<Queued> queue_;
  bool retry_scheduled_ = false;
  bool closed_ = false;
  /// Outstanding writes, oldest first: bytes already on disk, awaiting
  /// the virtual-time completion events that release them.  Bounded by
  /// CostModel::disk_queue_depth (at least one).
  std::deque<InFlight> in_flight_;
  std::uint64_t next_op_id_ = 0;
  /// The simulated device serializes transfers; this is when it frees
  /// up.  The fixed per-op completion latency overlaps across
  /// outstanding writes.
  Nanos device_busy_until_ = Nanos::zero();
  double slow_factor_ = 1.0;
  Nanos slow_until_ = Nanos::zero();
  Nanos full_until_ = Nanos::zero();
  ShardStats stats_;
  telemetry::HdrHistogram drain_latency_;
  std::vector<std::uint64_t> lost_seqs_;
  std::function<void()> drain_callback_;
};

/// The spool: owns one shard per capture queue plus the target
/// directory.
class Spool {
 public:
  Spool(sim::Scheduler& scheduler, const sim::CostModel& costs,
        SpoolConfig config);

  [[nodiscard]] SpoolShard& shard(std::uint32_t i) { return *shards_.at(i); }
  [[nodiscard]] std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const SpoolConfig& config() const { return config_; }

  /// True once every shard's queue is empty and no write is in flight.
  [[nodiscard]] bool drained() const;

  /// Closes every shard (evicting undrained chunks) and finalizes all
  /// segment footers.  Idempotent.
  void close();

  [[nodiscard]] ShardStats total_stats() const;

  /// Binds "<prefix>.shard<N>.<field>" counters and backlog gauges.
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix);

 private:
  SpoolConfig config_;
  std::vector<std::unique_ptr<SpoolShard>> shards_;
};

}  // namespace wirecap::store
