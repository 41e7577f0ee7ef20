// The PacketShader I/O engine (PSIOE) model (§6).
//
// PSIOE is structurally a Type-II engine — ring buffers are the only
// kernel-side buffering — but "uses a user-space thread, instead of
// Linux NAPI polling, to copy packets from receive ring buffers to a
// consecutive user-level buffer".  The copy is charged to the
// application (user priority) and counted; buffering stays limited to
// the ring, which is why PSIOE "is not suitable for a heavy-load
// application" (Table 2).
#pragma once

#include <memory>

#include "engines/type2_engine.hpp"

namespace wirecap::engines {

class PsioeEngine final : public CaptureEngine {
 public:
  explicit PsioeEngine(nic::MultiQueueNic& nic);

  [[nodiscard]] std::string_view name() const override { return "PSIOE"; }

  void open(std::uint32_t queue, sim::SimCore& app_core) override;
  void close(std::uint32_t queue) override;
  std::optional<CaptureView> try_next(std::uint32_t queue) override;
  void done(std::uint32_t queue, const CaptureView& view) override;
  /// PSIOE copies bursts "to a consecutive user-level buffer"
  /// (PacketShader's chunk): the batch read carves the staging buffer
  /// into one 2 KB slot per packet so every view of the
  /// batch has distinct storage (the base adapter would alias them all
  /// to the single per-packet slot).  Views are valid until the next
  /// batch is pulled; done()/done_batch() remain no-ops because the
  /// ring buffers were released at copy time.
  std::size_t try_next_batch(std::uint32_t queue, std::size_t max_packets,
                             PacketBatch& batch) override;
  bool forward(std::uint32_t queue, const CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override;
  [[nodiscard]] Nanos app_overhead_per_packet() const override;
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override;
  [[nodiscard]] EngineQueueStats queue_stats(
      std::uint32_t queue) const override;

 private:
  Type2Engine inner_;
  /// Per-queue staging buffer in "user space"; the packet is copied here
  /// and the ring buffer released immediately.
  std::vector<std::vector<std::byte>> user_buffers_;
  std::vector<std::uint64_t> copies_;
};

}  // namespace wirecap::engines
