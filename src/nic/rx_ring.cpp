#include "nic/rx_ring.hpp"

#include <stdexcept>

namespace wirecap::nic {

RxRing::RxRing(std::uint32_t size) : descriptors_(size) {
  if (size == 0) throw std::invalid_argument("RxRing: size must be positive");
}

std::uint32_t RxRing::empty_slots() const {
  return static_cast<std::uint32_t>(descriptors_.size() - (attach_ - consume_));
}

bool RxRing::attach(DmaBuffer buffer) {
  if (!buffer.valid()) {
    throw std::invalid_argument("RxRing::attach: invalid buffer");
  }
  if (attach_ - consume_ >= descriptors_.size()) return false;  // ring full
  RxDescriptor& desc = descriptors_[wrap(attach_)];
  desc.state = RxDescState::kReady;
  desc.buffer = buffer;
  desc.writeback = RxWriteback{};
  ++attach_;
  return true;
}

bool RxRing::has_filled() const { return consume_ < filled_; }

RxRing::Consumed RxRing::consume() {
  if (!has_filled()) {
    throw std::logic_error("RxRing::consume: no filled descriptor");
  }
  RxDescriptor& desc = descriptors_[wrap(consume_)];
  Consumed out{desc.buffer, desc.writeback};
  desc.state = RxDescState::kEmpty;
  desc.buffer = DmaBuffer{};
  ++consume_;
  return out;
}

const RxWriteback& RxRing::peek_writeback() const {
  if (!has_filled()) {
    throw std::logic_error("RxRing::peek_writeback: no filled descriptor");
  }
  return descriptors_[wrap(consume_)].writeback;
}

bool RxRing::dma_in_flight() const {
  for (const RxDescriptor& desc : descriptors_) {
    if (desc.state == RxDescState::kDmaInFlight) return true;
  }
  return false;
}

void RxRing::reset() {
  if (dma_in_flight()) {
    throw std::logic_error("RxRing::reset: DMA in flight");
  }
  for (RxDescriptor& desc : descriptors_) desc = RxDescriptor{};
  attach_ = dma_ = consume_ = filled_ = 0;
}

bool RxRing::can_receive() const {
  return dma_ < attach_ &&
         descriptors_[wrap(dma_)].state == RxDescState::kReady;
}

std::uint32_t RxRing::begin_dma() {
  if (!can_receive()) {
    throw std::logic_error("RxRing::begin_dma: no ready descriptor");
  }
  const std::uint32_t index = wrap(dma_);
  descriptors_[index].state = RxDescState::kDmaInFlight;
  ++dma_;
  return index;
}

void RxRing::complete_dma(std::uint32_t index, const RxWriteback& writeback) {
  RxDescriptor& desc = descriptors_.at(index);
  if (desc.state != RxDescState::kDmaInFlight) {
    throw std::logic_error("RxRing::complete_dma: descriptor not in flight");
  }
  desc.state = RxDescState::kFilled;
  desc.writeback = writeback;
  while (filled_ < dma_ &&
         descriptors_[wrap(filled_)].state == RxDescState::kFilled) {
    ++filled_;
  }
}

std::uint32_t RxRing::ready_count() const {
  return static_cast<std::uint32_t>(attach_ - dma_);
}

}  // namespace wirecap::nic
