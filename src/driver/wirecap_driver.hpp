// The WireCAP kernel-mode driver for one receive queue (§3.2-3.3).
//
// Manages the queue's descriptor segments and ring buffer pool and
// implements the four ioctl operations of the ring-buffer-pool
// mechanism:
//
//   open    — map the pool, attach every descriptor segment with a free
//             chunk
//   capture — move filled chunks to user space by metadata only; on
//             timeout, rescue a partially filled chunk by copying its
//             packets into a free chunk
//   recycle — validate user metadata and return a chunk to the free pool
//   close   — tear down
//
// Zero-copy forwarding needs no driver operation: the engine attaches a
// captured packet's pool cell to the output NIC's transmit descriptor
// and recycles the chunk once transmission completes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "driver/chunk_pool.hpp"
#include "nic/device.hpp"
#include "telemetry/tracer.hpp"

namespace wirecap::driver {

struct WirecapDriverConfig {
  /// M — descriptors per segment == cells per chunk.
  std::uint32_t cells_per_chunk = 256;
  /// R — chunks in the pool (R > ring_size / M "to provide a large ring
  /// buffer pool").
  std::uint32_t chunk_count = 100;
  /// Timeout after which a partially filled chunk is copied out so
  /// packets are not held in the receive ring too long.
  Nanos partial_chunk_timeout = Nanos::from_millis(1.0);
  /// NUMA node the ring buffer pool is allocated on (the node the
  /// queue's capture thread is pinned to; remote-socket penalties are
  /// charged by the engine's cost model, not by the driver).
  std::uint32_t numa_node = 0;
};

struct WirecapDriverStats {
  std::uint64_t chunks_captured = 0;     // full, zero-copy
  std::uint64_t partial_rescues = 0;     // timeout copies (chunks)
  std::uint64_t packets_copied = 0;      // packets moved by partial rescue
  std::uint64_t packets_captured = 0;    // total packets delivered upward
  std::uint64_t chunks_recycled = 0;
  std::uint64_t recycle_rejects = 0;     // failed metadata validation
  std::uint64_t attach_failures = 0;     // free list empty on replenish
};

class WirecapQueueDriver {
 public:
  WirecapQueueDriver(nic::MultiQueueNic& nic, std::uint32_t queue,
                     WirecapDriverConfig config);

  [[nodiscard]] std::uint32_t queue() const { return queue_; }
  [[nodiscard]] const RingBufferPool& pool() const { return pool_; }
  [[nodiscard]] RingBufferPool& pool() { return pool_; }
  [[nodiscard]] const WirecapDriverStats& stats() const { return stats_; }

  /// The open operation: attaches free chunks to every descriptor
  /// segment the ring has room for.
  void open();

  /// The capture operation.  Moves up to `max_chunks` *full* chunks to
  /// user space (metadata only) and appends them to `out`.  When no full
  /// chunk is available but packets older than the configured timeout
  /// sit in the ring, performs one partial-chunk rescue (copy into a
  /// free chunk).  Returns the number of packets copied (0 on the pure
  /// zero-copy path) so the caller can charge the copy cost.
  std::uint32_t capture(Nanos now, std::size_t max_chunks,
                        std::vector<ChunkMeta>& out);

  /// The recycle operation, with strict metadata validation.
  Status recycle(const ChunkMeta& meta);

  /// Batched recycle: validates and returns every chunk, replenishing
  /// the ring once at the end instead of once per chunk (the engine's
  /// poll drains its whole recycle queue through this).  Returns the
  /// number of chunks accepted; rejects count in `recycle_rejects`.
  std::size_t recycle_batch(const std::vector<ChunkMeta>& metas);

  /// Arrival time of a just-captured chunk: the NIC writeback timestamp
  /// of its first packet.  This is when the chunk's data entered the
  /// ring — the anchor for end-to-end latency accounting.
  [[nodiscard]] Nanos chunk_arrival(const ChunkMeta& meta) const;

  /// The close operation: detaches every still-attached chunk back to
  /// the free pool and resets the receive ring.  Packets sitting
  /// unconsumed in the ring are discarded.  Requires a quiesced NIC (no
  /// DMA in flight into this queue).
  void close();

  /// Hands the driver the experiment's tracer and a virtual-time source
  /// so segment attaches and chunk capture/rescue/recycle transitions
  /// show up in the event trace.  Both may be null (tracing off).
  void set_tracer(telemetry::EventTracer* tracer, std::function<Nanos()> clock);

 private:
  /// One descriptor segment currently attached to the ring.
  struct Segment {
    std::uint32_t chunk_id = 0;
    std::uint32_t consumed_cells = 0;  // delivered via partial rescue
  };

  /// Attaches free chunks while the ring has room for full segments.
  void replenish();

  /// Consumes `count` filled descriptors from the oldest segment,
  /// recording per-cell info.  Returns the cell index of the first
  /// consumed cell.
  std::uint32_t consume_cells(Segment& segment, std::uint32_t count);

  nic::MultiQueueNic& nic_;
  std::uint32_t queue_;
  WirecapDriverConfig config_;
  RingBufferPool pool_;
  std::deque<Segment> segments_;  // oldest first
  WirecapDriverStats stats_;
  bool open_ = false;
  telemetry::EventTracer* tracer_ = nullptr;
  std::function<Nanos()> clock_;  // virtual time for sites without a `now`
};

}  // namespace wirecap::driver
