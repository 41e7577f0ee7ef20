#include "driver/wirecap_driver.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::driver {

WirecapQueueDriver::WirecapQueueDriver(nic::MultiQueueNic& nic,
                                       std::uint32_t queue,
                                       WirecapDriverConfig config)
    : nic_(nic),
      queue_(queue),
      config_(config),
      pool_(nic.nic_id(), queue, config.cells_per_chunk, config.chunk_count,
            config.numa_node) {
  if (config_.cells_per_chunk > nic.config().rx_ring_size) {
    throw std::invalid_argument(
        "WirecapQueueDriver: segment size M exceeds the ring size");
  }
  const std::uint32_t segments_in_ring =
      nic.config().rx_ring_size / config_.cells_per_chunk;
  if (config_.chunk_count <= segments_in_ring) {
    throw std::invalid_argument(
        "WirecapQueueDriver: R must exceed ring_size / M so the pool "
        "provides buffering beyond the ring itself");
  }
}

void WirecapQueueDriver::open() {
  if (open_) return;
  open_ = true;
  replenish();
}

void WirecapQueueDriver::replenish() {
  nic::RxRing& ring = nic_.rx_ring(queue_);
  const std::uint32_t m = config_.cells_per_chunk;
  while (ring.empty_slots() >= m) {
    auto acquired = pool_.acquire_for_attach();
    if (!acquired) {
      ++stats_.attach_failures;
      break;
    }
    const std::uint32_t chunk_id = acquired.value();
    for (std::uint32_t cell = 0; cell < m; ++cell) {
      const bool ok = ring.attach(nic::DmaBuffer{
          pool_.cell(chunk_id, cell),
          RingBufferPool::make_cookie(chunk_id, cell)});
      if (!ok) throw std::logic_error("WirecapQueueDriver: attach failed");
    }
    segments_.push_back(Segment{chunk_id, 0});
    // Descriptor-segment transition: a free chunk entered the ring.
    if (tracer_ && tracer_->enabled() && clock_) {
      tracer_->instant("segment.attach", "driver", clock_(), queue_, "chunk",
                       chunk_id);
    }
  }
  nic_.kick(queue_);
}

std::uint32_t WirecapQueueDriver::consume_cells(Segment& segment,
                                                std::uint32_t count) {
  nic::RxRing& ring = nic_.rx_ring(queue_);
  const std::uint32_t first = segment.consumed_cells;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto consumed = ring.consume();
    const std::uint32_t chunk =
        RingBufferPool::cookie_chunk(consumed.buffer.cookie);
    const std::uint32_t cell =
        RingBufferPool::cookie_cell(consumed.buffer.cookie);
    if (chunk != segment.chunk_id || cell != segment.consumed_cells) {
      throw std::logic_error(
          "WirecapQueueDriver: descriptor/segment order violated");
    }
    CellInfo& info = pool_.cell_info(chunk, cell);
    info.length = consumed.writeback.length;
    info.wire_length = consumed.writeback.wire_length;
    info.timestamp_ns = consumed.writeback.timestamp.count();
    info.seq = consumed.writeback.seq;
    ++segment.consumed_cells;
  }
  return first;
}

std::uint32_t WirecapQueueDriver::capture(Nanos now, std::size_t max_chunks,
                                          std::vector<ChunkMeta>& out) {
  if (!open_) return 0;
  nic::RxRing& ring = nic_.rx_ring(queue_);
  const std::uint32_t m = config_.cells_per_chunk;
  std::size_t produced = 0;

  // Zero-copy path: move every completely filled chunk.
  while (produced < max_chunks && !segments_.empty()) {
    Segment& segment = segments_.front();
    const std::uint32_t remaining = m - segment.consumed_cells;
    if (ring.filled_count() < remaining) break;
    const std::uint32_t first = consume_cells(segment, remaining);
    auto meta = pool_.mark_captured(segment.chunk_id, first, remaining);
    if (!meta) {
      throw std::logic_error("WirecapQueueDriver: mark_captured failed");
    }
    out.push_back(meta.value());
    ++stats_.chunks_captured;
    stats_.packets_captured += remaining;
    WIRECAP_TRACE(tracer_, instant("chunk.capture", "driver", now, queue_,
                                   "chunk", meta->chunk_id, "pkts", remaining));
    segments_.pop_front();
    ++produced;
    replenish();
  }
  if (produced > 0) return 0;

  // Timeout path: packets held in the ring too long are copied into a
  // free chunk, "which is moved to the user space instead".
  if (segments_.empty() || !ring.has_filled()) return 0;
  const Nanos age = now - ring.peek_writeback().timestamp;
  if (age < config_.partial_chunk_timeout) return 0;

  Segment& segment = segments_.front();
  const std::uint32_t filled = std::min(
      ring.filled_count(), m - segment.consumed_cells);
  if (filled == 0) return 0;
  auto rescue = pool_.capture_free_chunk(filled);
  if (!rescue) {
    // No free chunk to copy into; leave packets in the ring.
    ++stats_.attach_failures;
    return 0;
  }

  const std::uint32_t source_chunk = segment.chunk_id;
  const std::uint32_t source_first = consume_cells(segment, filled);
  // Only the captured bytes move; the rest of a cell is never read.
  for (std::uint32_t i = 0; i < filled; ++i) {
    const CellInfo& info = pool_.cell_info(source_chunk, source_first + i);
    const auto src =
        pool_.cell(source_chunk, source_first + i).first(info.length);
    std::copy(src.begin(), src.end(), pool_.cell(rescue->chunk_id, i).begin());
    pool_.cell_info(rescue->chunk_id, i) = info;
  }
  out.push_back(rescue.value());
  ++stats_.partial_rescues;
  stats_.packets_copied += filled;
  stats_.packets_captured += filled;
  WIRECAP_TRACE(tracer_, instant("chunk.rescue", "driver", now, queue_,
                                 "chunk", rescue->chunk_id, "copied", filled));
  // The rescue consumed ring cells: re-attach free chunks where whole
  // segments now fit and kick the NIC.  When the ring size is not a
  // multiple of M, the rescue itself is what pushes empty_slots past
  // the segment threshold — without replenishing here the free chunk
  // sits idle and the ring runs short until the next recycle happens
  // to arrive.
  replenish();
  return filled;
}

Nanos WirecapQueueDriver::chunk_arrival(const ChunkMeta& meta) const {
  if (meta.pkt_count == 0) return Nanos::zero();
  return Nanos{pool_.cell_info(meta.chunk_id, meta.first_cell).timestamp_ns};
}

Status WirecapQueueDriver::recycle(const ChunkMeta& meta) {
  const Status status = pool_.recycle(meta);
  if (status.is_ok()) {
    ++stats_.chunks_recycled;
    if (tracer_ && tracer_->enabled() && clock_) {
      tracer_->instant("chunk.recycle", "driver", clock_(), queue_, "chunk",
                       meta.chunk_id);
    }
    replenish();
  } else {
    ++stats_.recycle_rejects;
  }
  return status;
}

std::size_t WirecapQueueDriver::recycle_batch(
    const std::vector<ChunkMeta>& metas) {
  std::size_t accepted = 0;
  for (const ChunkMeta& meta : metas) {
    if (pool_.recycle(meta).is_ok()) {
      ++stats_.chunks_recycled;
      ++accepted;
      if (tracer_ && tracer_->enabled() && clock_) {
        tracer_->instant("chunk.recycle", "driver", clock_(), queue_, "chunk",
                         meta.chunk_id);
      }
    } else {
      ++stats_.recycle_rejects;
    }
  }
  // One replenish covers the whole batch: every freed chunk is visible
  // to the attach loop, without the per-chunk ring scans the singular
  // path pays.
  if (accepted > 0) replenish();
  return accepted;
}

void WirecapQueueDriver::close() {
  if (!open_) return;
  open_ = false;
  // Detach every chunk still tied to the ring and rewind the ring's
  // descriptors/cursors, so a later open() (or a reopened queue's fresh
  // driver) starts from a clean slate instead of consuming descriptors
  // whose cookies reference a dead pool.
  for (const Segment& segment : segments_) {
    pool_.release_attached(segment.chunk_id);
  }
  segments_.clear();
  nic_.rx_ring(queue_).reset();
}

void WirecapQueueDriver::set_tracer(telemetry::EventTracer* tracer,
                                    std::function<Nanos()> clock) {
  tracer_ = tracer;
  clock_ = std::move(clock);
}

}  // namespace wirecap::driver
