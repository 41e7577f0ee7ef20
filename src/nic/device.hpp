// The multi-queue NIC device model: RX queues with descriptor rings fed
// by a steering policy and a DMA engine, TX queues drained onto the
// egress port at line rate, and per-queue drop accounting.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "net/packet.hpp"
#include "nic/descriptor.hpp"
#include "nic/rx_ring.hpp"
#include "nic/steering.hpp"
#include "sim/bus.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::nic {

struct NicConfig {
  std::uint32_t nic_id = 0;
  std::uint32_t num_rx_queues = 1;
  std::uint32_t num_tx_queues = 1;
  /// Descriptors per RX ring.  The 82599 has 8192 total; the paper's
  /// experiments configure each ring with 1,024.
  std::uint32_t rx_ring_size = 1024;
  std::uint32_t tx_ring_size = 1024;
  double link_bits_per_second = 10e9;
  /// Bus transactions per received packet (DMA write).  A transmitted
  /// packet's DMA read is always one transaction.
  double rx_transactions_per_packet = 1.0;
  /// Internal receive packet buffer (the 82599 has 512 KB).  Frames
  /// arriving while no descriptor is ready wait here; it is partitioned
  /// evenly across the configured receive queues.
  std::uint32_t rx_fifo_bytes = 512 * 1024;
  /// Storage granularity inside the packet buffer: each frame occupies a
  /// whole number of slots of this size.
  std::uint32_t rx_fifo_slot_bytes = 128;
};

struct RxQueueStats {
  std::uint64_t received = 0;   // frames DMA'd into the ring
  std::uint64_t dropped = 0;    // frames lost: no descriptor and FIFO full
  std::uint64_t bytes = 0;
  std::uint64_t fifo_buffered = 0;  // frames that waited in the RX FIFO
};

struct TxQueueStats {
  std::uint64_t transmitted = 0;
  std::uint64_t dropped = 0;    // TX ring full
};

class MultiQueueNic {
 public:
  MultiQueueNic(sim::Scheduler& scheduler, sim::IoBus& bus, NicConfig config,
                std::unique_ptr<SteeringPolicy> steering = nullptr);

  [[nodiscard]] const NicConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t nic_id() const { return config_.nic_id; }
  /// The scheduler this device lives on; engine factories use it so a
  /// NIC reference alone is enough to construct an engine.
  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }

  // --- ingress (called by the wire at frame arrival time) ---

  /// A frame arrives from the wire.  In promiscuous capture mode every
  /// frame is steered to a queue; if the queue's ring has no ready
  /// descriptor the frame is dropped and counted.
  void receive(const net::WirePacket& packet);

  // --- driver interface ---

  [[nodiscard]] RxRing& rx_ring(std::uint32_t queue) {
    return *rx_rings_.at(queue);
  }
  [[nodiscard]] const RxRing& rx_ring(std::uint32_t queue) const {
    return *rx_rings_.at(queue);
  }

  /// Registers a callback fired after each DMA completion into `queue`
  /// (the interrupt / NAPI schedule hook).
  void set_rx_interrupt(std::uint32_t queue, std::function<void()> fn);

  /// Tells the NIC that the driver refilled descriptors on `queue`:
  /// frames parked in the internal RX FIFO resume DMA.  Drivers call
  /// this after attaching buffers.
  void kick(std::uint32_t queue);

  /// Queues a frame for transmission on `queue`.  Returns false when the
  /// TX ring is full.  The frame span must stay valid until the
  /// request's on_complete fires.
  bool transmit(std::uint32_t queue, TxRequest request);

  /// Observer of frames leaving the egress port (the directly connected
  /// "packet receiver" of the paper's forwarding experiments).
  void set_egress(std::function<void(const net::WirePacket&)> fn) {
    egress_ = std::move(fn);
  }

  // --- statistics ---

  [[nodiscard]] const RxQueueStats& rx_stats(std::uint32_t queue) const {
    return rx_stats_.at(queue);
  }
  [[nodiscard]] const TxQueueStats& tx_stats(std::uint32_t queue) const {
    return tx_stats_.at(queue);
  }
  [[nodiscard]] std::uint64_t total_rx_dropped() const;
  [[nodiscard]] std::uint64_t total_transmitted() const;

 private:
  struct RxFifo {
    std::deque<net::WirePacket> frames;
    std::uint32_t used_bytes = 0;
    std::uint32_t capacity_bytes = 0;
  };

  void start_dma(std::uint32_t queue, const net::WirePacket& packet);
  [[nodiscard]] std::uint32_t fifo_footprint(
      const net::WirePacket& packet) const;
  void drain_fifo(std::uint32_t queue);
  void start_tx_drain();
  void finish_tx(std::uint32_t queue);

  sim::Scheduler& scheduler_;
  sim::IoBus& bus_;
  NicConfig config_;
  std::unique_ptr<SteeringPolicy> steering_;
  std::vector<std::unique_ptr<RxRing>> rx_rings_;
  std::vector<std::function<void()>> rx_interrupts_;
  std::vector<RxQueueStats> rx_stats_;
  std::vector<RxFifo> rx_fifos_;

  std::vector<std::deque<TxRequest>> tx_queues_;
  std::vector<TxQueueStats> tx_stats_;
  std::uint32_t tx_arbiter_ = 0;  // round-robin over TX queues
  bool tx_active_ = false;
  std::function<void(const net::WirePacket&)> egress_;
};

}  // namespace wirecap::nic
