#include "driver/chunk_pool.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nic/descriptor.hpp"

namespace wirecap::driver {

std::uint64_t RingBufferPool::next_uid() {
  static std::uint64_t counter = 0;
  return ++counter;
}

RingBufferPool::RingBufferPool(std::uint32_t nic_id, std::uint32_t ring_id,
                               std::uint32_t cells_per_chunk,
                               std::uint32_t chunk_count,
                               std::uint32_t cell_size,
                               std::uint32_t numa_node)
    : nic_id_(nic_id),
      ring_id_(ring_id),
      cells_per_chunk_(cells_per_chunk),
      chunk_count_(chunk_count),
      cell_size_(cell_size),
      cell_stride_(nic::materialized_bytes(cell_size)),
      numa_node_(numa_node) {
  if (cells_per_chunk == 0 || chunk_count == 0 || cell_size == 0) {
    throw std::invalid_argument("RingBufferPool: M, R, cell size must be > 0");
  }
  memory_.resize(capacity_packets() * cell_stride_);
  cell_info_.resize(capacity_packets());
  states_.assign(chunk_count, ChunkState::kFree);
  extra_shares_.assign(chunk_count, 0);
  // Free list as a stack; lowest ids on top for deterministic behaviour.
  free_list_.resize(chunk_count);
  std::iota(free_list_.rbegin(), free_list_.rend(), 0u);
}

Result<std::uint32_t> RingBufferPool::acquire_for_attach() {
  if (free_list_.empty()) return StatusCode::kExhausted;
  const std::uint32_t chunk_id = free_list_.back();
  free_list_.pop_back();
  states_[chunk_id] = ChunkState::kAttached;
  notify(chunk_id, ChunkState::kFree, ChunkState::kAttached, "attach");
  return chunk_id;
}

Result<ChunkMeta> RingBufferPool::mark_captured(std::uint32_t chunk_id,
                                                std::uint32_t first_cell,
                                                std::uint32_t pkt_count) {
  if (chunk_id >= chunk_count_) return StatusCode::kInvalidArgument;
  if (states_[chunk_id] != ChunkState::kAttached) {
    return StatusCode::kInvalidArgument;
  }
  if (first_cell + pkt_count > cells_per_chunk_) {
    return StatusCode::kInvalidArgument;
  }
  states_[chunk_id] = ChunkState::kCaptured;
  notify(chunk_id, ChunkState::kAttached, ChunkState::kCaptured, "capture");
  return ChunkMeta{nic_id_, ring_id_, chunk_id, first_cell, pkt_count};
}

Result<ChunkMeta> RingBufferPool::capture_free_chunk(std::uint32_t pkt_count) {
  if (pkt_count > cells_per_chunk_) return StatusCode::kInvalidArgument;
  if (free_list_.empty()) return StatusCode::kExhausted;
  const std::uint32_t chunk_id = free_list_.back();
  free_list_.pop_back();
  states_[chunk_id] = ChunkState::kCaptured;
  notify(chunk_id, ChunkState::kFree, ChunkState::kCaptured, "rescue");
  return ChunkMeta{nic_id_, ring_id_, chunk_id, 0, pkt_count};
}

Status RingBufferPool::recycle(const ChunkMeta& meta) {
  // Strict validation: the kernel trusts nothing in user-supplied
  // metadata (§3.2.2c).
  const auto reject = [&](StatusCode code) {
    if (observer_) observer_->on_recycle_reject(*this, meta, code);
    return Status{code};
  };
  if (meta.nic_id != nic_id_ || meta.ring_id != ring_id_) {
    return reject(StatusCode::kPermissionDenied);
  }
  if (meta.chunk_id >= chunk_count_) {
    return reject(StatusCode::kInvalidArgument);
  }
  if (meta.first_cell + meta.pkt_count > cells_per_chunk_) {
    return reject(StatusCode::kInvalidArgument);
  }
  if (states_[meta.chunk_id] != ChunkState::kCaptured) {
    return reject(StatusCode::kInvalidArgument);  // double recycle / foreign
  }
  if (extra_shares_[meta.chunk_id] != 0) {
    // Fan-out subscribers still hold shares of this chunk; recycling
    // now would hand their live views' memory back to the NIC.
    return reject(StatusCode::kWouldBlock);
  }
  states_[meta.chunk_id] = ChunkState::kFree;
  free_list_.push_back(meta.chunk_id);
  notify(meta.chunk_id, ChunkState::kCaptured, ChunkState::kFree, "recycle");
  return Status::ok();
}

void RingBufferPool::release_attached(std::uint32_t chunk_id) {
  check_chunk_id(chunk_id);
  if (states_[chunk_id] != ChunkState::kAttached) {
    throw std::logic_error("RingBufferPool::release_attached: not attached");
  }
  states_[chunk_id] = ChunkState::kFree;
  free_list_.push_back(chunk_id);
  notify(chunk_id, ChunkState::kAttached, ChunkState::kFree, "release");
}

Status RingBufferPool::add_shares(std::uint32_t chunk_id,
                                  std::uint32_t extra) {
  if (chunk_id >= chunk_count_) return Status{StatusCode::kInvalidArgument};
  if (states_[chunk_id] != ChunkState::kCaptured) {
    return Status{StatusCode::kInvalidArgument};
  }
  extra_shares_[chunk_id] += extra;
  if (observer_ && extra != 0) {
    observer_->on_shares(*this, chunk_id, static_cast<std::int64_t>(extra),
                         extra_shares_[chunk_id]);
  }
  return Status::ok();
}

Status RingBufferPool::release_shares(std::uint32_t chunk_id,
                                      std::uint32_t count) {
  if (chunk_id >= chunk_count_) return Status{StatusCode::kInvalidArgument};
  if (extra_shares_[chunk_id] < count) {
    return Status{StatusCode::kInvalidArgument};
  }
  extra_shares_[chunk_id] -= count;
  if (observer_ && count != 0) {
    observer_->on_shares(*this, chunk_id, -static_cast<std::int64_t>(count),
                         extra_shares_[chunk_id]);
  }
  return Status::ok();
}

std::uint32_t RingBufferPool::extra_shares(std::uint32_t chunk_id) const {
  check_chunk_id(chunk_id);
  return extra_shares_[chunk_id];
}

ChunkState RingBufferPool::state(std::uint32_t chunk_id) const {
  check_chunk_id(chunk_id);
  return states_[chunk_id];
}

ChunkStateCounts RingBufferPool::state_counts() const {
  ChunkStateCounts counts;
  for (const ChunkState state : states_) {
    switch (state) {
      case ChunkState::kFree: ++counts.free; break;
      case ChunkState::kAttached: ++counts.attached; break;
      case ChunkState::kCaptured: ++counts.captured; break;
    }
  }
  return counts;
}

std::span<std::byte> RingBufferPool::cell(std::uint32_t chunk_id,
                                          std::uint32_t cell_index) {
  check_chunk_id(chunk_id);
  if (cell_index >= cells_per_chunk_) {
    throw std::out_of_range("RingBufferPool::cell: bad cell index");
  }
  const std::size_t offset =
      (static_cast<std::size_t>(chunk_id) * cells_per_chunk_ + cell_index) *
      cell_stride_;
  return {memory_.data() + offset, cell_stride_};
}

std::span<const std::byte> RingBufferPool::cell(
    std::uint32_t chunk_id, std::uint32_t cell_index) const {
  return const_cast<RingBufferPool*>(this)->cell(chunk_id, cell_index);
}

CellInfo& RingBufferPool::cell_info(std::uint32_t chunk_id,
                                    std::uint32_t cell_index) {
  check_chunk_id(chunk_id);
  if (cell_index >= cells_per_chunk_) {
    throw std::out_of_range("RingBufferPool::cell_info: bad cell index");
  }
  return cell_info_[static_cast<std::size_t>(chunk_id) * cells_per_chunk_ +
                    cell_index];
}

const CellInfo& RingBufferPool::cell_info(std::uint32_t chunk_id,
                                          std::uint32_t cell_index) const {
  return const_cast<RingBufferPool*>(this)->cell_info(chunk_id, cell_index);
}

void RingBufferPool::check_chunk_id(std::uint32_t chunk_id) const {
  if (chunk_id >= chunk_count_) {
    throw std::out_of_range("RingBufferPool: bad chunk id");
  }
}

}  // namespace wirecap::driver
