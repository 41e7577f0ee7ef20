#include "nic/device.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::nic {

MultiQueueNic::MultiQueueNic(sim::Scheduler& scheduler, sim::IoBus& bus,
                             NicConfig config,
                             std::unique_ptr<SteeringPolicy> steering)
    : scheduler_(scheduler),
      bus_(bus),
      config_(config),
      steering_(steering ? std::move(steering) : make_rss_steering()) {
  if (config_.num_rx_queues == 0 || config_.num_tx_queues == 0) {
    throw std::invalid_argument("MultiQueueNic: need >= 1 queue");
  }
  rx_rings_.reserve(config_.num_rx_queues);
  for (std::uint32_t q = 0; q < config_.num_rx_queues; ++q) {
    rx_rings_.push_back(std::make_unique<RxRing>(config_.rx_ring_size));
  }
  rx_interrupts_.resize(config_.num_rx_queues);
  rx_stats_.resize(config_.num_rx_queues);
  rx_fifos_.resize(config_.num_rx_queues);
  for (auto& fifo : rx_fifos_) {
    fifo.capacity_bytes = config_.rx_fifo_bytes / config_.num_rx_queues;
  }
  tx_queues_.resize(config_.num_tx_queues);
  tx_stats_.resize(config_.num_tx_queues);
}

void MultiQueueNic::receive(const net::WirePacket& packet) {
  const std::uint32_t queue =
      steering_->select_queue(packet, config_.num_rx_queues);
  RxRing& ring = *rx_rings_[queue];
  RxQueueStats& stats = rx_stats_[queue];
  RxFifo& fifo = rx_fifos_[queue];

  // Frames queue behind anything already waiting in the internal packet
  // buffer; otherwise, a ready descriptor means direct DMA.
  if (fifo.frames.empty() && ring.can_receive()) {
    start_dma(queue, packet);
    return;
  }

  const std::uint32_t footprint = fifo_footprint(packet);
  if (fifo.used_bytes + footprint > fifo.capacity_bytes) {
    // Packet capture drop: no ready descriptor and the packet buffer is
    // full.
    ++stats.dropped;
    return;
  }
  fifo.frames.push_back(packet);
  fifo.used_bytes += footprint;
  ++stats.fifo_buffered;
  drain_fifo(queue);
}

std::uint32_t MultiQueueNic::fifo_footprint(
    const net::WirePacket& packet) const {
  const std::uint32_t slots =
      (packet.wire_len() + config_.rx_fifo_slot_bytes - 1) /
      config_.rx_fifo_slot_bytes;
  return slots * config_.rx_fifo_slot_bytes;
}

void MultiQueueNic::drain_fifo(std::uint32_t queue) {
  RxRing& ring = *rx_rings_[queue];
  RxFifo& fifo = rx_fifos_[queue];
  while (!fifo.frames.empty() && ring.can_receive()) {
    const net::WirePacket packet = fifo.frames.front();
    fifo.frames.pop_front();
    fifo.used_bytes -= fifo_footprint(packet);
    start_dma(queue, packet);
  }
}

void MultiQueueNic::kick(std::uint32_t queue) { drain_fifo(queue); }

void MultiQueueNic::start_dma(std::uint32_t queue,
                              const net::WirePacket& packet) {
  RxRing& ring = *rx_rings_[queue];
  const std::uint32_t index = ring.begin_dma();
  // The DMA engine moves the frame across the bus, then writes back
  // completion metadata.  With an unconstrained bus this completes
  // synchronously.
  bus_.issue(config_.rx_transactions_per_packet,
             [this, queue, index, packet] {
               RxRing& r = *rx_rings_[queue];
               DmaBuffer& buffer = r.buffer_at(index);
               const auto bytes = packet.bytes();
               const std::size_t n =
                   std::min(bytes.size(), buffer.data.size());
               std::copy_n(bytes.begin(), n, buffer.data.begin());
               RxWriteback writeback;
               writeback.length = static_cast<std::uint32_t>(n);
               writeback.wire_length = packet.wire_len();
               writeback.timestamp = packet.timestamp();
               writeback.seq = packet.seq();
               writeback.flow = packet.flow();
               r.complete_dma(index, writeback);
               RxQueueStats& s = rx_stats_[queue];
               ++s.received;
               s.bytes += packet.wire_len();
               if (rx_interrupts_[queue]) rx_interrupts_[queue]();
             });
}

void MultiQueueNic::set_rx_interrupt(std::uint32_t queue,
                                     std::function<void()> fn) {
  rx_interrupts_.at(queue) = std::move(fn);
}

bool MultiQueueNic::transmit(std::uint32_t queue, TxRequest request) {
  auto& tx_queue = tx_queues_.at(queue);
  if (tx_queue.size() >= config_.tx_ring_size) {
    ++tx_stats_[queue].dropped;
    return false;
  }
  tx_queue.push_back(std::move(request));
  if (!tx_active_) {
    tx_active_ = true;
    start_tx_drain();
  }
  return true;
}

void MultiQueueNic::start_tx_drain() {
  // Round-robin arbitration across TX queues.
  for (std::uint32_t i = 0; i < config_.num_tx_queues; ++i) {
    const std::uint32_t q = (tx_arbiter_ + i) % config_.num_tx_queues;
    if (!tx_queues_[q].empty()) {
      tx_arbiter_ = (q + 1) % config_.num_tx_queues;
      // The frame's DMA read (one transaction) loads the shared bus
      // (contending with RX DMA) but transmission is pipelined —
      // descriptor prefetch means the wire, not a bus round-trip, paces
      // the TX path.
      bus_.issue(1.0, [] {});
      finish_tx(q);
      return;
    }
  }
  tx_active_ = false;
}

void MultiQueueNic::finish_tx(std::uint32_t queue) {
  TxRequest request = std::move(tx_queues_[queue].front());
  tx_queues_[queue].pop_front();

  const double bytes_on_wire = static_cast<double>(
      request.wire_length + ethernet::kWireOverheadBytes);
  const Nanos serialization = Nanos::from_seconds(
      bytes_on_wire * 8.0 / config_.link_bits_per_second);

  scheduler_.schedule_after(
      serialization,
      [this, queue, request = std::move(request)]() mutable {
        ++tx_stats_[queue].transmitted;
        if (egress_) {
          net::WirePacket out = net::WirePacket::from_bytes(
              scheduler_.now(), request.frame, request.wire_length,
              request.seq);
          egress_(out);
        }
        if (request.on_complete) request.on_complete();
        start_tx_drain();
      });
}

std::uint64_t MultiQueueNic::total_rx_dropped() const {
  std::uint64_t total = 0;
  for (const auto& s : rx_stats_) total += s.dropped;
  return total;
}

std::uint64_t MultiQueueNic::total_transmitted() const {
  std::uint64_t total = 0;
  for (const auto& s : tx_stats_) total += s.transmitted;
  return total;
}

}  // namespace wirecap::nic
