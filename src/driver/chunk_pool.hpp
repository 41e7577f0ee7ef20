// The ring-buffer-pool (§3.2.1, Figure 4).
//
// Each receive queue owns a pool of R packet-buffer chunks.  A chunk is
// M fixed-size cells occupying contiguous memory; each cell backs one
// receive descriptor of a descriptor segment.  A chunk is in one of
// three states:
//
//   free      — held in the kernel, available for (re)use
//   attached  — its cells are tied to a descriptor segment, receiving
//   captured  — filled and moved (by metadata only) to user space
//
// Globally a chunk is identified by {nic_id, ring_id, chunk_id}.  The
// recycle path validates this metadata strictly — a misbehaving
// application must not be able to corrupt kernel state (§3.2.2c).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "nic/descriptor.hpp"

namespace wirecap::driver {

enum class ChunkState : std::uint8_t { kFree, kAttached, kCaptured };

class RingBufferPool;
struct ChunkMeta;

/// Observation seam for every chunk state transition a pool performs.
/// The production pool runs with a null observer (one predicted branch
/// per transition); the lifecycle auditor (src/testing) subscribes here
/// to shadow the state machine and fail fast on violations.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;

  /// Fired after a transition commits.  `cause` is a static string
  /// naming the operation ("attach", "capture", "rescue", "recycle",
  /// "release").
  virtual void on_transition(const RingBufferPool& pool,
                             std::uint32_t chunk_id, ChunkState from,
                             ChunkState to, const char* cause) = 0;

  /// Fired when recycle() rejects user-supplied metadata (the chunk, if
  /// any, did not change state).
  virtual void on_recycle_reject(const RingBufferPool& pool,
                                 const ChunkMeta& meta, StatusCode code) {
    static_cast<void>(pool);
    static_cast<void>(meta);
    static_cast<void>(code);
  }

  /// Fired after a fan-out share grant (`delta` > 0) or release
  /// (`delta` < 0) commits on a captured chunk; `now` is the resulting
  /// share count.  Shares gate recycle: a chunk cannot leave the
  /// captured state while any remain.
  virtual void on_shares(const RingBufferPool& pool, std::uint32_t chunk_id,
                         std::int64_t delta, std::uint32_t now) {
    static_cast<void>(pool);
    static_cast<void>(chunk_id);
    static_cast<void>(delta);
    static_cast<void>(now);
  }
};

/// Per-state population of a pool; free + attached + captured always
/// equals R (every chunk is in exactly one state).
struct ChunkStateCounts {
  std::uint32_t free = 0;
  std::uint32_t attached = 0;
  std::uint32_t captured = 0;
};

[[nodiscard]] constexpr const char* to_string(ChunkState state) {
  switch (state) {
    case ChunkState::kFree: return "free";
    case ChunkState::kAttached: return "attached";
    case ChunkState::kCaptured: return "captured";
  }
  return "?";
}

/// Metadata passed between kernel and user space when a chunk is
/// captured or recycled: {nic_id, ring_id, chunk_id} plus the valid cell
/// range.  The chunk body is never copied — this struct *is* the
/// capture.
struct ChunkMeta {
  std::uint32_t nic_id = 0;
  std::uint32_t ring_id = 0;
  std::uint32_t chunk_id = 0;
  /// First cell holding a packet (nonzero after a partial-copy rescue
  /// consumed a prefix of the chunk).
  std::uint32_t first_cell = 0;
  /// Number of packets in the chunk.
  std::uint32_t pkt_count = 0;

  constexpr bool operator==(const ChunkMeta&) const = default;
};

/// Per-cell packet metadata written by the driver when the cell's
/// descriptor completes (the simulation's stand-in for the descriptor
/// writeback the user library reads).
struct CellInfo {
  std::uint32_t length = 0;
  std::uint32_t wire_length = 0;
  std::int64_t timestamp_ns = 0;
  std::uint64_t seq = 0;
};

class RingBufferPool {
 public:
  /// Creates a pool of `chunk_count` (R) chunks of `cells_per_chunk` (M)
  /// cells, each a nic::kBufferBytes packet buffer.  Only each cell's
  /// materialized prefix is allocated (nic::kMaterializedBytes).
  RingBufferPool(std::uint32_t nic_id, std::uint32_t ring_id,
                 std::uint32_t cells_per_chunk, std::uint32_t chunk_count,
                 std::uint32_t numa_node = 0);

  [[nodiscard]] std::uint32_t nic_id() const { return nic_id_; }
  [[nodiscard]] std::uint32_t ring_id() const { return ring_id_; }
  /// Process-unique pool instance id.  {nic_id, ring_id} repeats across
  /// close()/open() cycles (a reopened queue builds a fresh pool with
  /// the same coordinates); observers that shadow per-pool state key on
  /// this instead so a recycled heap address can't alias a dead pool.
  [[nodiscard]] std::uint64_t uid() const { return uid_; }
  [[nodiscard]] std::uint32_t cells_per_chunk() const { return cells_per_chunk_; }
  [[nodiscard]] std::uint32_t chunk_count() const { return chunk_count_; }
  /// NUMA node the pool's memory is allocated on (placement decided by
  /// the driver config; the cost model charges remote-socket access).
  [[nodiscard]] std::uint32_t numa_node() const { return numa_node_; }

  /// Total buffering capacity in packets (R * M).
  [[nodiscard]] std::uint64_t capacity_packets() const {
    return static_cast<std::uint64_t>(cells_per_chunk_) * chunk_count_;
  }

  /// Total modelled pool memory in bytes (R * M * 2 KB).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return capacity_packets() * nic::kBufferBytes;
  }

  [[nodiscard]] std::uint32_t free_chunks() const {
    return static_cast<std::uint32_t>(free_list_.size());
  }

  /// Chunks in the captured state, kept O(1) the way free_chunks() reads
  /// the free list (state_counts().captured recounts it in O(R)).  The
  /// engine charges tenant quotas from this count.
  [[nodiscard]] std::uint32_t captured_chunks() const { return captured_; }

  // --- state transitions ---

  /// free -> attached.  Returns the chunk id, or kExhausted when the
  /// free list is empty — the condition that leads to packet capture
  /// drops ("the free packet buffer chunks in the ring buffer pool
  /// become depleted").
  Result<std::uint32_t> acquire_for_attach();

  /// attached -> captured.  `first_cell`/`pkt_count` describe the valid
  /// range.  Returns the metadata handed to user space.
  Result<ChunkMeta> mark_captured(std::uint32_t chunk_id,
                                  std::uint32_t first_cell,
                                  std::uint32_t pkt_count);

  /// free -> captured directly: used by the partial-copy rescue path,
  /// which fills a free chunk with copied packets and captures it
  /// without ever attaching it.
  Result<ChunkMeta> capture_free_chunk(std::uint32_t pkt_count);

  /// captured -> free, with strict validation of every metadata field.
  /// kPermissionDenied on a foreign {nic_id, ring_id}; kInvalidArgument
  /// on a bad chunk_id or cell range; kInvalidArgument when the chunk is
  /// not in the captured state (double recycle).
  Status recycle(const ChunkMeta& meta);

  /// attached -> free: the driver detaches a chunk whose descriptors are
  /// no longer in the ring — a rescue donor whose cells were all copied
  /// out, or a still-attached chunk at close().  Throws on a chunk that
  /// is not attached (this is a driver-internal path, not a user one).
  void release_attached(std::uint32_t chunk_id);

  // --- fan-out share accounting ---

  /// Registers `extra` additional user-space release shares on a
  /// *captured* chunk (the pipeline's FanOut hands one chunk's metadata
  /// to several subscribers; each share is one pending release).
  /// recycle() refuses the chunk while shares remain — defense in depth
  /// against an engine bug recycling a fanned-out chunk early.
  /// kInvalidArgument on a bad chunk id or a chunk not captured.
  Status add_shares(std::uint32_t chunk_id, std::uint32_t extra);

  /// Drops `count` shares of `chunk_id` (the engine clears a chunk's
  /// remaining shares when its last reference is released, immediately
  /// before recycling it).  kInvalidArgument when fewer than `count`
  /// shares are outstanding.
  Status release_shares(std::uint32_t chunk_id, std::uint32_t count);

  /// Outstanding fan-out shares of `chunk_id`.
  [[nodiscard]] std::uint32_t extra_shares(std::uint32_t chunk_id) const;

  /// Registers (or clears, with null) the transition observer.  The
  /// observer must outlive the pool or be cleared before destruction.
  void set_observer(PoolObserver* observer) { observer_ = observer; }
  [[nodiscard]] PoolObserver* observer() const { return observer_; }

  // --- cell access ---

  [[nodiscard]] ChunkState state(std::uint32_t chunk_id) const;

  /// Current population of each state (O(R); for audits and tests).
  [[nodiscard]] ChunkStateCounts state_counts() const;

  /// Memory of one cell (the DMA target / packet bytes):
  /// nic::kMaterializedBytes bytes.
  [[nodiscard]] std::span<std::byte> cell(std::uint32_t chunk_id,
                                          std::uint32_t cell_index);
  [[nodiscard]] std::span<const std::byte> cell(std::uint32_t chunk_id,
                                                std::uint32_t cell_index) const;

  /// Driver-written per-cell packet info.
  [[nodiscard]] CellInfo& cell_info(std::uint32_t chunk_id,
                                    std::uint32_t cell_index);
  [[nodiscard]] const CellInfo& cell_info(std::uint32_t chunk_id,
                                          std::uint32_t cell_index) const;

  /// Whole-chunk accessors for the batch delivery path: one bounds
  /// check per chunk instead of two per cell, then plain indexing.
  /// Defined inline below so the per-batch hot loop can inline them.
  [[nodiscard]] std::span<std::byte> chunk_bytes(std::uint32_t chunk_id);
  [[nodiscard]] std::span<const CellInfo> chunk_cells(
      std::uint32_t chunk_id) const;

  /// Encodes (chunk, cell) into the DMA-buffer cookie and back.
  [[nodiscard]] static constexpr std::uint64_t make_cookie(
      std::uint32_t chunk_id, std::uint32_t cell_index) {
    return (static_cast<std::uint64_t>(chunk_id) << 32) | cell_index;
  }
  [[nodiscard]] static constexpr std::uint32_t cookie_chunk(std::uint64_t c) {
    return static_cast<std::uint32_t>(c >> 32);
  }
  [[nodiscard]] static constexpr std::uint32_t cookie_cell(std::uint64_t c) {
    return static_cast<std::uint32_t>(c & 0xFFFFFFFF);
  }

 private:
  static std::uint64_t next_uid();

  void check_chunk_id(std::uint32_t chunk_id) const;

  void notify(std::uint32_t chunk_id, ChunkState from, ChunkState to,
              const char* cause) {
    if (observer_) observer_->on_transition(*this, chunk_id, from, to, cause);
  }

  std::uint64_t uid_ = next_uid();
  std::uint32_t nic_id_;
  std::uint32_t ring_id_;
  std::uint32_t cells_per_chunk_;
  std::uint32_t chunk_count_;
  std::uint32_t numa_node_ = 0;
  /// One allocation for all chunks, so each chunk's cells are adjacent
  /// (the paper's chunk occupies physically contiguous memory): chunk
  /// c's cell i lives at offset ((c * M) + i) * nic::kMaterializedBytes.
  std::vector<std::byte> memory_;
  std::vector<CellInfo> cell_info_;
  std::vector<ChunkState> states_;
  std::vector<std::uint32_t> free_list_;
  std::uint32_t captured_ = 0;
  /// Per-chunk fan-out share counts; nonzero only while captured.
  std::vector<std::uint32_t> extra_shares_;
  PoolObserver* observer_ = nullptr;
};

inline std::span<std::byte> RingBufferPool::chunk_bytes(
    std::uint32_t chunk_id) {
  check_chunk_id(chunk_id);
  const std::size_t stride =
      static_cast<std::size_t>(cells_per_chunk_) * nic::kMaterializedBytes;
  return std::span<std::byte>(memory_.data() + chunk_id * stride, stride);
}

inline std::span<const CellInfo> RingBufferPool::chunk_cells(
    std::uint32_t chunk_id) const {
  check_chunk_id(chunk_id);
  return std::span<const CellInfo>(
      cell_info_.data() +
          static_cast<std::size_t>(chunk_id) * cells_per_chunk_,
      cells_per_chunk_);
}

}  // namespace wirecap::driver
