#include "engines/type2_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::engines {

Type2Engine::Type2Engine(nic::MultiQueueNic& nic, Type2Config config)
    : nic_(nic), config_(std::move(config)) {
  if (config_.sync_batch == 0) {
    throw std::invalid_argument("Type2Engine: sync_batch must be >= 1");
  }
  queues_.resize(nic_.config().num_rx_queues);
}

std::span<std::byte> Type2Engine::cell(QueueState& qs, std::uint64_t index) {
  return {qs.cells.data() + index * nic::kMaterializedBytes,
          nic::kMaterializedBytes};
}

void Type2Engine::open(std::uint32_t queue, sim::SimCore& /*app_core*/) {
  QueueState& qs = queues_.at(queue);
  if (qs.open) return;
  qs.open = true;
  const std::uint32_t ring_size = nic_.config().rx_ring_size;
  qs.cells.resize(static_cast<std::size_t>(ring_size) *
                  nic::kMaterializedBytes);
  nic::RxRing& ring = nic_.rx_ring(queue);
  for (std::uint32_t i = 0; i < ring_size; ++i) {
    ring.attach(nic::DmaBuffer{cell(qs, i), i});
  }
  nic_.kick(queue);
  nic_.set_rx_interrupt(queue, [this, queue] {
    QueueState& state = queues_[queue];
    if (state.data_callback) state.data_callback();
  });
}

void Type2Engine::close(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  qs.open = false;
  qs.data_callback = nullptr;
  nic_.set_rx_interrupt(queue, nullptr);
}

std::optional<CaptureView> Type2Engine::try_next(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  nic::RxRing& ring = nic_.rx_ring(queue);
  if (!qs.open || !ring.has_filled()) {
    // The blocked application's poll()/NIOCRXSYNC reclaims whatever it
    // has released so far.
    sync(queue);
    return std::nullopt;
  }
  const auto consumed = ring.consume();
  CaptureView view;
  view.bytes = consumed.buffer.data.first(consumed.writeback.length);
  view.wire_len = consumed.writeback.wire_length;
  view.timestamp = consumed.writeback.timestamp;
  view.seq = consumed.writeback.seq;
  view.handle = consumed.buffer.cookie;
  ++qs.stats.delivered;
  return view;
}

void Type2Engine::release(std::uint32_t queue, std::uint64_t cookie) {
  QueueState& qs = queues_.at(queue);
  qs.released.push_back(cookie);
  if (qs.released.size() >= config_.sync_batch) sync(queue);
}

void Type2Engine::sync(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  if (qs.released.empty()) return;
  nic::RxRing& ring = nic_.rx_ring(queue);
  for (const std::uint64_t cookie : qs.released) {
    if (!ring.attach(nic::DmaBuffer{cell(qs, cookie), cookie})) {
      throw std::logic_error("Type2Engine: ring refused re-attach");
    }
  }
  qs.released.clear();
  nic_.kick(queue);
}

void Type2Engine::done(std::uint32_t queue, const CaptureView& view) {
  release(queue, view.handle);
}

bool Type2Engine::forward(std::uint32_t queue, const CaptureView& view,
                          nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) {
  // Zero-copy forward: the ring buffer stays out of the RX ring until
  // the frame has left the TX port.
  nic::TxRequest request;
  request.frame = view.bytes;
  request.wire_length = view.wire_len;
  request.seq = view.seq;
  request.on_complete = [this, queue, cookie = view.handle] {
    release(queue, cookie);
  };
  if (!out_nic.transmit(tx_queue, std::move(request))) {
    release(queue, view.handle);  // TX ring full: drop, reclaim buffer
    return false;
  }
  return true;
}

void Type2Engine::set_data_callback(std::uint32_t queue,
                                    std::function<void()> fn) {
  queues_.at(queue).data_callback = std::move(fn);
}

EngineQueueStats Type2Engine::queue_stats(std::uint32_t queue) const {
  return queues_.at(queue).stats;
}

void Type2Engine::bind_telemetry(telemetry::Telemetry& telemetry,
                                 const std::string& prefix,
                                 std::uint32_t num_queues) {
  CaptureEngine::bind_telemetry(telemetry, prefix, num_queues);
  for (std::uint32_t q = 0; q < num_queues && q < queues_.size(); ++q) {
    telemetry.registry.bind_gauge(
        prefix + ".q" + std::to_string(q) + ".released.pending",
        [this, q] { return static_cast<double>(queues_[q].released.size()); });
  }
}

}  // namespace wirecap::engines
