#include "engines/psioe_engine.hpp"

#include <algorithm>

namespace wirecap::engines {
namespace {

/// Descriptors reclaimed per batched sync of the inner ring.
constexpr std::uint32_t kSyncBatch = 64;
/// Per-packet sync cost of the inner ring.
constexpr Nanos kSyncCost{8};
/// Per-packet user-space copy into the staging buffer.
constexpr Nanos kCopyCost{95};

}  // namespace

PsioeEngine::PsioeEngine(nic::MultiQueueNic& nic)
    : inner_(nic, Type2Config{"PSIOE-inner", kSyncBatch, kSyncCost}) {
  user_buffers_.resize(nic.config().num_rx_queues);
  copies_.resize(nic.config().num_rx_queues, 0);
}

void PsioeEngine::open(std::uint32_t queue, sim::SimCore& app_core) {
  inner_.open(queue, app_core);
  user_buffers_.at(queue).resize(nic::kBufferBytes);
}

void PsioeEngine::close(std::uint32_t queue) { inner_.close(queue); }

std::optional<CaptureView> PsioeEngine::try_next(std::uint32_t queue) {
  auto view = inner_.try_next(queue);
  if (!view) return std::nullopt;
  // Copy into the user buffer and release the ring buffer right away:
  // the application works from its own memory from here on.
  auto& staging = user_buffers_.at(queue);
  const std::size_t n = std::min(view->bytes.size(), staging.size());
  std::copy_n(view->bytes.begin(), n, staging.begin());
  ++copies_.at(queue);
  inner_.done(queue, *view);
  CaptureView out = *view;
  out.bytes = {staging.data(), n};
  out.handle = 0;
  return out;
}

void PsioeEngine::done(std::uint32_t /*queue*/, const CaptureView& /*view*/) {
  // The ring buffer was already released when the packet was copied.
}

std::size_t PsioeEngine::try_next_batch(std::uint32_t queue,
                                        std::size_t max_packets,
                                        PacketBatch& batch) {
  batch.clear();
  batch.source_ring = queue;
  auto& staging = user_buffers_.at(queue);
  constexpr std::size_t slot_bytes = nic::kBufferBytes;
  if (staging.size() < max_packets * slot_bytes) {
    staging.resize(max_packets * slot_bytes);
  }
  while (batch.views.size() < max_packets) {
    auto view = inner_.try_next(queue);
    if (!view) break;
    const std::size_t offset = batch.views.size() * slot_bytes;
    const std::size_t n = std::min(view->bytes.size(), slot_bytes);
    std::copy_n(view->bytes.begin(), n,
                staging.begin() + static_cast<std::ptrdiff_t>(offset));
    ++copies_.at(queue);
    inner_.done(queue, *view);
    CaptureView out = *view;
    out.bytes = {staging.data() + offset, n};
    out.handle = 0;
    batch.views.push_back(out);
    batch.refs.push_back(BatchRef{out.handle, 1});
  }
  return batch.views.size();
}

bool PsioeEngine::forward(std::uint32_t queue, const CaptureView& view,
                          nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) {
  // The staging buffer is reused per packet, so keep the frame alive
  // for the duration of the transmit.
  auto keepalive = std::make_shared<std::vector<std::byte>>(
      view.bytes.begin(), view.bytes.end());
  ++copies_.at(queue);
  nic::TxRequest request;
  request.frame = {keepalive->data(), keepalive->size()};
  request.wire_length = view.wire_len;
  request.seq = view.seq;
  request.on_complete = [keepalive] {};
  return out_nic.transmit(tx_queue, std::move(request));
}

Nanos PsioeEngine::app_overhead_per_packet() const {
  return kCopyCost + inner_.app_overhead_per_packet();
}

void PsioeEngine::set_data_callback(std::uint32_t queue,
                                    std::function<void()> fn) {
  inner_.set_data_callback(queue, std::move(fn));
}

EngineQueueStats PsioeEngine::queue_stats(std::uint32_t queue) const {
  EngineQueueStats stats = inner_.queue_stats(queue);
  stats.copies += copies_.at(queue);
  return stats;
}

}  // namespace wirecap::engines
