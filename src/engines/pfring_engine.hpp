// Type-I packet capture engine: PF_RING (§2.1).
//
// Ring buffers are 1-to-1 mapped to descriptors and refilled with the
// same buffer after the kernel copies each packet into an intermediate
// per-queue buffer (pf_ring), which is memory-mapped into the
// application.  Two structural consequences the paper measures:
//
//   * at least one copy per packet, performed in NAPI (softirq) context
//     *on the application's core* at kernel priority — at high packet
//     rates this starves the application: the receive-livelock problem;
//   * when the application cannot keep pace, the pf_ring buffer
//     overflows and packets are lost *after* capture: packet delivery
//     drops.
#pragma once

#include <cstdint>
#include <vector>

#include "engines/engine.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::engines {

class PfRingEngine final : public CaptureEngine {
 public:
  /// Copies the two PF_RING costs out of `costs` (callers may pass a
  /// temporary): the per-packet NAPI work (pfring_kernel_cost), charged
  /// at kernel priority on the application's core, and the
  /// interrupt-to-poll latency (napi_wakeup_delay).
  PfRingEngine(sim::Scheduler& scheduler, nic::MultiQueueNic& nic,
               const sim::CostModel& costs);

  [[nodiscard]] std::string_view name() const override { return "PF_RING"; }

  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  void close(std::uint32_t queue) override;
  std::optional<CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const CaptureView& view) override;
  bool forward(std::uint32_t queue, const CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] EngineQueueStats queue_stats(
      std::uint32_t queue) const override;
  /// Base metrics plus the pf_ring intermediate-buffer occupancy — the
  /// Type-I delivery-drop signal (Table 1's 56.8%).
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix,
                      std::uint32_t num_queues) override;

 private:
  struct PfSlot {
    std::vector<std::byte> data;
    std::uint32_t length = 0;
    std::uint32_t wire_length = 0;
    Nanos timestamp{};
    std::uint64_t seq = 0;
    bool released = false;  // read and done(), head not yet past it
  };

  struct QueueState {
    bool open = false;
    sim::SimCore* app_core = nullptr;
    std::vector<std::byte> cells;  // 1-to-1 ring buffers
    // pf_ring circular buffer.
    std::vector<PfSlot> slots;
    std::uint32_t head = 0;        // oldest slot not yet released
    std::uint32_t count = 0;       // occupied slots
    /// Slots handed to the application (batch read-ahead) but not yet
    /// released; they occupy [head, head + read_ahead).  Slots stay
    /// occupied — and the pf_ring can still overflow past them — until
    /// done(), exactly as if the app were mid-way through its mmap'd
    /// window.
    std::uint32_t read_ahead = 0;
    bool napi_active = false;
    std::function<void()> data_callback;
    EngineQueueStats stats;
  };

  [[nodiscard]] std::span<std::byte> cell(QueueState& qs, std::uint64_t index);
  void schedule_napi(std::uint32_t queue);
  void napi_step(std::uint32_t queue);

  sim::Scheduler& scheduler_;
  nic::MultiQueueNic& nic_;
  Nanos kernel_cost_;
  Nanos napi_wakeup_delay_;
  std::vector<QueueState> queues_;
};

}  // namespace wirecap::engines
