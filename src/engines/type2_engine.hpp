// Type-II packet capture engines: DNA and NETMAP (§2.1).
//
// "DNA and NETMAP expose shadow copies of receive rings to user-space
// applications.  The ring buffers ... not only are used to receive
// packets but are also employed as data capture buffer."  Delivery is
// zero-copy, but a received packet occupies its ring buffer (and its
// receive descriptor) until the application consumes it and the ring is
// re-synced — so buffering is limited to the ring size, the deficiency
// Table 2 records.
//
// The two engines share the architecture and differ in their sync
// discipline: DNA's per-packet release returns descriptors to the NIC
// immediately, while NETMAP batches descriptor reclamation in its
// NIOC*SYNC ioctl, holding more of the ring back under pressure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engines/engine.hpp"

namespace wirecap::engines {

struct Type2Config {
  std::string name = "DNA";
  /// Released buffers are re-attached to the ring once this many are
  /// pending (1 = per-packet, DNA; larger = batched sync, NETMAP).  A
  /// sync also happens whenever the application finds the queue empty.
  std::uint32_t sync_batch = 1;
  /// Per-packet application-side cost of the sync path.
  Nanos sync_cost = Nanos{8};
};

class Type2Engine final : public CaptureEngine {
 public:
  Type2Engine(nic::MultiQueueNic& nic, Type2Config config);

  [[nodiscard]] std::string_view name() const override { return config_.name; }

  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  void close(std::uint32_t queue) override;
  std::optional<CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const CaptureView& view) override;
  bool forward(std::uint32_t queue, const CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  [[nodiscard]] Nanos app_overhead_per_packet() const override {
    return config_.sync_cost;
  }
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] EngineQueueStats queue_stats(
      std::uint32_t queue) const override;
  /// Base metrics plus the released-but-unsynced descriptor backlog
  /// (the batched-sync pressure NETMAP exhibits under load).
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix,
                      std::uint32_t num_queues) override;

 private:
  struct QueueState {
    bool open = false;
    /// One cell per ring descriptor, 1-to-1 mapped.
    std::vector<std::byte> cells;
    /// Cookies (cell indices) released by the app, awaiting sync.
    std::vector<std::uint64_t> released;
    std::function<void()> data_callback;
    EngineQueueStats stats;
  };

  [[nodiscard]] std::span<std::byte> cell(QueueState& qs, std::uint64_t index);
  void sync(std::uint32_t queue);
  void release(std::uint32_t queue, std::uint64_t cookie);

  nic::MultiQueueNic& nic_;
  Type2Config config_;
  std::vector<QueueState> queues_;
};

}  // namespace wirecap::engines
