// The receive ring: a circular array of receive descriptors with three
// cursors advancing in ring order.
//
//   attach cursor  — where the driver attaches the next empty buffer
//   dma cursor     — the next descriptor the NIC will fill
//   consume cursor — the next descriptor the driver will consume
//
// Invariant: consume <= dma <= attach <= consume + size (in unwrapped
// cursor arithmetic).  A packet arriving when the descriptor at the DMA
// cursor is not ready is a *packet capture drop* — the central failure
// mode the paper studies.
#pragma once

#include <cstdint>
#include <vector>

#include "nic/descriptor.hpp"

namespace wirecap::nic {

class RxRing {
 public:
  explicit RxRing(std::uint32_t size);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(descriptors_.size());
  }

  // --- driver side ---

  /// Descriptors currently without a buffer (attachable).
  [[nodiscard]] std::uint32_t empty_slots() const;

  /// Attaches `buffer` to the descriptor at the attach cursor.
  /// Returns false when no empty slot is available.
  bool attach(DmaBuffer buffer);

  /// Index of the next filled descriptor awaiting consumption, or
  /// negative if none.  DMA completes in FIFO order, so filled
  /// descriptors are always contiguous from the consume cursor.
  [[nodiscard]] bool has_filled() const;

  /// Number of contiguous filled descriptors from the consume cursor.
  /// O(1): the distance to the completion cursor.
  [[nodiscard]] std::uint32_t filled_count() const {
    return static_cast<std::uint32_t>(filled_ - consume_);
  }

  /// Consumes the filled descriptor at the consume cursor: returns its
  /// buffer + writeback and resets the slot to empty.  Precondition:
  /// has_filled().
  struct Consumed {
    DmaBuffer buffer;
    RxWriteback writeback;
  };
  Consumed consume();

  /// Writeback of the oldest filled descriptor (for age/timeout checks).
  /// Precondition: has_filled().
  [[nodiscard]] const RxWriteback& peek_writeback() const;

  /// Detaches every descriptor and rewinds all cursors — the driver's
  /// close operation, after which a fresh open() starts from a clean
  /// ring.  Throws if a DMA is in flight: the caller must quiesce the
  /// NIC first (a completion landing on a reset slot would corrupt the
  /// new owner's buffer).
  void reset();

  /// True while any descriptor has a DMA in flight — the condition the
  /// caller must wait out before reset().
  [[nodiscard]] bool dma_in_flight() const;

  // --- NIC side ---

  /// True when the descriptor at the DMA cursor is ready to receive.
  [[nodiscard]] bool can_receive() const;

  /// Claims the descriptor at the DMA cursor for an in-flight DMA.
  /// Returns the descriptor index.  Precondition: can_receive().
  std::uint32_t begin_dma();

  /// Completes an in-flight DMA: the frame bytes have been written into
  /// the buffer; records writeback metadata.
  void complete_dma(std::uint32_t index, const RxWriteback& writeback);

  /// Direct access for the DMA engine to copy bytes into the claimed
  /// descriptor's buffer.
  [[nodiscard]] DmaBuffer& buffer_at(std::uint32_t index) {
    return descriptors_[index].buffer;
  }

  // --- statistics ---

  [[nodiscard]] std::uint32_t ready_count() const;
  [[nodiscard]] RxDescState state_at(std::uint32_t index) const {
    return descriptors_[index].state;
  }

 private:
  [[nodiscard]] std::uint32_t wrap(std::uint64_t cursor) const {
    return static_cast<std::uint32_t>(cursor % descriptors_.size());
  }

  std::vector<RxDescriptor> descriptors_;
  // Unwrapped (monotone) cursors; invariant consume_ <= filled_ <= dma_
  // <= attach_ <= consume_ + size().
  std::uint64_t attach_ = 0;
  std::uint64_t dma_ = 0;
  std::uint64_t consume_ = 0;
  // Completion cursor: every descriptor in [consume_, filled_) is filled
  // and the one at filled_ (if below dma_) is still in flight.
  // complete_dma() advances it past each run of completions, so
  // out-of-order completions are counted once the gap before them closes.
  std::uint64_t filled_ = 0;
};

}  // namespace wirecap::nic
