// A DPDK-style packet I/O engine (§6 Related work, §7 Future work).
//
// Per the paper's comparison: like WireCAP, DPDK "provides large packet
// buffer pools at each receive queue to accommodate packet bursts,
// supports dynamic packet buffer management, employs flexible
// zero-copying, and receives packets from each receive queue through
// polling."  It differs in two ways that this model captures:
//
//   * buffer pools live in *user space* (UIO): a dedicated RX lcore per
//     queue (the classic DPDK pipeline arrangement) polls
//     rte_eth_rx_burst, refilling descriptors immediately from the
//     mempool's free mbufs and passing packet handles to the worker
//     thread through a software ring — so buffering is bounded by the
//     mempool, not the descriptor ring;
//   * DPDK itself has **no offloading mechanism**: "a DPDK-based
//     application must implement an offloading mechanism in the
//     application layer to handle long-term load imbalance" — and the
//     paper lists the design burdens that entails (steering policy,
//     thread synchronization, buffer recycling across threads).
//
// The optional application-layer offloading here implements exactly
// that hand-rolled machinery (software queues between application
// threads, per-packet handle passing, cross-thread buffer return) so
// the future-work comparison — WireCAP's engine-level offloading vs
// DPDK-with-app-offloading — can be run; see bench_ext_dpdk.  The extra
// per-packet work of the application-layer path is charged to the
// application cores.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "engines/engine.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::engines {

struct DpdkConfig {
  /// mbufs in each queue's mempool (the buffering bound).
  std::uint32_t mempool_size = 25'600;
  /// Enables the hand-rolled application-layer offloading.
  bool app_offload = false;
  /// Backlog fraction of the mempool beyond which a burst is redirected.
  double app_offload_threshold = 0.6;
};

class DpdkEngine final : public CaptureEngine {
 public:
  DpdkEngine(sim::Scheduler& scheduler, nic::MultiQueueNic& nic,
             DpdkConfig config);


  [[nodiscard]] std::string_view name() const override {
    return config_.app_offload ? "DPDK+app-offload" : "DPDK";
  }

  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  void close(std::uint32_t queue) override;
  std::optional<CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const CaptureView& view) override;
  bool forward(std::uint32_t queue, const CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  /// Popping the software ring.
  [[nodiscard]] Nanos app_overhead_per_packet() const override;
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] EngineQueueStats queue_stats(
      std::uint32_t queue) const override;
  /// Base metrics plus mempool occupancy, software-ring depths and the
  /// RX lcore's utilization.
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix,
                      std::uint32_t num_queues) override;

  /// Tenant registration maps onto peer groups: each tenant's queues
  /// are application threads that exchange packets through the
  /// app-layer software queues, among themselves only (the DPDK
  /// analogue of a buddy group, except the *application* owns all of
  /// it).  Quotas are a WireCAP concept and are ignored here.
  TenantId register_tenant(const TenantSpec& spec) override;

  /// mbufs currently out of the free list (backlog indicator).
  [[nodiscard]] std::uint32_t in_use(std::uint32_t queue) const;

 private:
  /// An mbuf handed between threads: which mempool it came from and
  /// which mbuf it is, plus the packet metadata.
  struct PacketHandle {
    std::uint32_t owner_queue = 0;
    std::uint32_t mbuf = 0;
    std::uint32_t length = 0;
    std::uint32_t wire_length = 0;
    Nanos timestamp{};
    std::uint64_t seq = 0;
  };

  struct QueueState {
    bool open = false;
    sim::SimCore* app_core = nullptr;
    std::unique_ptr<sim::SimCore> io_core;  // the queue's RX lcore
    // mempool_size mbufs of nic::kMaterializedBytes bytes
    std::vector<std::byte> mempool;
    std::vector<std::uint32_t> free_mbufs;
    std::deque<PacketHandle> local;       // software ring to the worker
    std::deque<PacketHandle> inbound;     // redirected here by peers
    std::vector<std::uint32_t> peers;
    std::function<void()> data_callback;
    EngineQueueStats stats;
  };

  [[nodiscard]] std::span<std::byte> mbuf_bytes(QueueState& qs,
                                                std::uint32_t mbuf);
  /// The RX lcore's poll loop: repeated rte_eth_rx_burst draining the
  /// descriptor ring into the software ring(s).
  void io_poll(std::uint32_t queue);
  /// One rte_eth_rx_burst: consume up to a burst of filled descriptors,
  /// refilling each with a fresh mbuf; places handles on `local` or, if
  /// offloading trips, on the least busy peer's `inbound`.  Returns the
  /// number received.
  std::size_t rx_burst(std::uint32_t queue);
  void release(const PacketHandle& handle);
  [[nodiscard]] static constexpr std::uint64_t pack(const PacketHandle& h) {
    return (static_cast<std::uint64_t>(h.owner_queue) << 32) | h.mbuf;
  }

  sim::Scheduler& scheduler_;
  nic::MultiQueueNic& nic_;
  DpdkConfig config_;
  std::vector<QueueState> queues_;
};

}  // namespace wirecap::engines
