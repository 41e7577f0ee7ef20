// Application-side packet views and the batch container of the
// batch-granularity read path.
//
// Kept free of NIC/simulation dependencies so low-level consumers (the
// BPF batch executor, the store) can include it without pulling in the
// whole engine layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"

namespace wirecap::engines {

/// A captured packet as seen by the application.  `bytes` is writable:
/// middlebox applications may modify packets in flight before
/// forwarding.
struct CaptureView {
  std::span<std::byte> bytes{};
  std::uint32_t wire_len = 0;
  Nanos timestamp{};
  std::uint64_t seq = 0;
  std::uint64_t handle = 0;  // engine-internal
};

/// A whole captured chunk delivered to a chunk-granularity consumer
/// (the capture-to-disk spool, src/store).  `packets` are zero-copy
/// views into the chunk's cells, valid until done_chunk(); the chunk
/// body is never copied — this mirrors the paper's metadata-only
/// capture handoff at the application boundary.
struct ChunkCaptureView {
  std::vector<CaptureView> packets;
  /// Receive queue whose pool owns the cells (with WireCAP offloading
  /// this can differ from the queue the chunk was read from).  Consumers
  /// holding chunks across a close() of this ring must drop them first.
  std::uint32_t source_ring = 0;
};

/// One release obligation of a batch: `packets` pending releases of the
/// buffers behind `handle`.  try_next_batch() records the batch's
/// original extent here — one ref covering the whole chunk run for
/// chunk-native engines (WireCAP), one ref per view for the per-packet
/// baselines — and done_batch() settles the refs, never the views.
/// That makes in-place compaction of `views` (a pipeline stage dropping
/// packets, even all of them) leak-free by construction: removing a
/// view never loses its release.  Refs are the only way a batch is
/// released; done_batch() rejects a batch with views but no refs.
struct BatchRef {
  std::uint64_t handle = 0;
  std::uint32_t packets = 0;
};

/// One batch of captured packets on the batch-granularity read path
/// (CaptureEngine::try_next_batch / done_batch).  The caller owns the
/// storage and reuses it across calls, so a steady-state read loop
/// performs no per-batch allocation.  For chunk-native engines
/// (WireCAP) a batch is (up to `max_packets` of) one ring-buffer-pool
/// chunk: the views alias the chunk's cells, metadata-only, and stay
/// valid until done_batch().
struct PacketBatch {
  std::vector<CaptureView> views;
  /// The release obligations try_next_batch() minted for this batch.
  /// `views` may be compacted freely without touching `refs`; a view
  /// released out of band (forward(), inject bookkeeping) must be
  /// subtracted via note_released() so done_batch() does not release it
  /// a second time.
  std::vector<BatchRef> refs;
  /// Receive queue whose pool owns the cells (see ChunkCaptureView).
  std::uint32_t source_ring = 0;

  [[nodiscard]] std::size_t size() const { return views.size(); }
  [[nodiscard]] bool empty() const { return views.empty(); }
  void clear() {
    views.clear();
    refs.clear();
    source_ring = 0;
  }

  /// Total releases done_batch() still owes.
  [[nodiscard]] std::uint64_t pending_releases() const {
    std::uint64_t total = 0;
    for (const BatchRef& ref : refs) total += ref.packets;
    return total;
  }

  /// Records that the view behind `handle` was already released through
  /// another channel (forward(), an individual done()).  Matches the
  /// ref minted for exactly this handle first; a batch whose single ref
  /// covers a whole chunk run (WireCAP) accepts any of its cells'
  /// handles.  Throws when no ref has releases left — the caller
  /// double-released.
  void note_released(std::uint64_t handle) {
    for (BatchRef& ref : refs) {
      if (ref.handle == handle && ref.packets > 0) {
        --ref.packets;
        return;
      }
    }
    if (refs.size() == 1 && refs.front().packets > 0) {
      --refs.front().packets;
      return;
    }
    throw std::logic_error(
        "PacketBatch::note_released: no ref covers this view");
  }

  [[nodiscard]] auto begin() const { return views.begin(); }
  [[nodiscard]] auto end() const { return views.end(); }
};

}  // namespace wirecap::engines
