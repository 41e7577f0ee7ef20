#include "engines/pfring_engine.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace wirecap::engines {

PfRingEngine::PfRingEngine(sim::Scheduler& scheduler, nic::MultiQueueNic& nic,
                           PfRingConfig config)
    : scheduler_(scheduler), nic_(nic), config_(config) {
  if (config_.pf_ring_slots == 0) {
    throw std::invalid_argument("PfRingEngine: pf_ring needs slots");
  }
  queues_.resize(nic_.config().num_rx_queues);
}

std::span<std::byte> PfRingEngine::cell(QueueState& qs, std::uint64_t index) {
  const std::uint32_t stride = nic::materialized_bytes(config_.cell_size);
  return {qs.cells.data() + index * stride, stride};
}

void PfRingEngine::open(std::uint32_t queue, sim::SimCore& app_core) {
  QueueState& qs = queues_.at(queue);
  if (qs.open) return;
  qs.open = true;
  qs.app_core = &app_core;
  const std::uint32_t ring_size = nic_.config().rx_ring_size;
  qs.cells.resize(static_cast<std::size_t>(ring_size) *
                  nic::materialized_bytes(config_.cell_size));
  qs.slots.resize(config_.pf_ring_slots);
  for (auto& slot : qs.slots) slot.data.resize(config_.slot_bytes);

  nic::RxRing& ring = nic_.rx_ring(queue);
  for (std::uint32_t i = 0; i < ring_size; ++i) {
    ring.attach(nic::DmaBuffer{cell(qs, i), i});
  }
  nic_.kick(queue);
  // The RX interrupt arms NAPI polling on the application's core.
  nic_.set_rx_interrupt(queue, [this, queue] { schedule_napi(queue); });
}

void PfRingEngine::close(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  qs.open = false;
  qs.data_callback = nullptr;
  nic_.set_rx_interrupt(queue, nullptr);
}

void PfRingEngine::schedule_napi(std::uint32_t queue) {
  QueueState& qs = queues_[queue];
  if (qs.napi_active || !qs.open) return;
  qs.napi_active = true;
  scheduler_.schedule_after(config_.napi_wakeup_delay,
                            [this, queue] { napi_step(queue); });
}

void PfRingEngine::napi_step(std::uint32_t queue) {
  QueueState& qs = queues_[queue];
  if (!qs.open) {
    qs.napi_active = false;
    return;
  }
  nic::RxRing& ring = nic_.rx_ring(queue);
  if (!ring.has_filled()) {
    // Ring drained: leave polling mode; the next interrupt re-arms.
    qs.napi_active = false;
    return;
  }
  // One packet's worth of softirq work at kernel priority on the app
  // core — this is what preempts the application under load (receive
  // livelock).
  qs.app_core->submit(sim::WorkPriority::kKernel,
                      config_.kernel_cost_per_packet, [this, queue] {
    QueueState& state = queues_[queue];
    if (!state.open) {
      state.napi_active = false;
      return;
    }
    nic::RxRing& r = nic_.rx_ring(queue);
    if (r.has_filled()) {
      const auto consumed = r.consume();
      if (state.count >= state.slots.size()) {
        // pf_ring overflow: captured off the wire, lost before the
        // application — a packet delivery drop.
        ++state.stats.delivery_dropped;
      } else {
        const std::uint32_t tail = static_cast<std::uint32_t>(
            (state.head + state.count) % state.slots.size());
        PfSlot& slot = state.slots[tail];
        const std::size_t n = std::min<std::size_t>(
            consumed.writeback.length, slot.data.size());
        std::copy_n(consumed.buffer.data.begin(), n, slot.data.begin());
        slot.length = static_cast<std::uint32_t>(n);
        slot.wire_length = consumed.writeback.wire_length;
        slot.timestamp = consumed.writeback.timestamp;
        slot.seq = consumed.writeback.seq;
        ++state.count;
        ++state.stats.copies;
        if (state.data_callback) state.data_callback();
      }
      // Refill the descriptor with the same 1-to-1 mapped buffer.
      r.attach(nic::DmaBuffer{cell(state, consumed.buffer.cookie),
                              consumed.buffer.cookie});
      nic_.kick(queue);
    }
    napi_step(queue);
  });
}

std::optional<CaptureView> PfRingEngine::try_next(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  if (!qs.open || qs.read_ahead >= qs.count) return std::nullopt;
  const std::uint32_t index = static_cast<std::uint32_t>(
      (qs.head + qs.read_ahead) % qs.slots.size());
  PfSlot& slot = qs.slots[index];
  CaptureView view;
  view.bytes = {slot.data.data(), slot.length};
  view.wire_len = slot.wire_length;
  view.timestamp = slot.timestamp;
  view.seq = slot.seq;
  view.handle = index;
  ++qs.read_ahead;
  ++qs.stats.delivered;
  return view;
}

void PfRingEngine::done(std::uint32_t queue, const CaptureView& view) {
  QueueState& qs = queues_.at(queue);
  const std::uint32_t index = static_cast<std::uint32_t>(view.handle);
  // The slot must be inside the read-ahead window and not yet released.
  const std::uint32_t offset = static_cast<std::uint32_t>(
      (index + qs.slots.size() - qs.head) % qs.slots.size());
  if (offset >= qs.read_ahead || qs.slots[index].released) {
    throw std::logic_error("PfRingEngine::done: release outside read window");
  }
  qs.slots[index].released = true;
  // Reclaim in ring order: the head only advances over released slots,
  // so an out-of-order release (batch forwarding) is deferred, not lost.
  while (qs.read_ahead > 0 && qs.slots[qs.head].released) {
    qs.slots[qs.head].released = false;
    qs.head = static_cast<std::uint32_t>((qs.head + 1) % qs.slots.size());
    --qs.count;
    --qs.read_ahead;
  }
}

bool PfRingEngine::forward(std::uint32_t queue, const CaptureView& view,
                           nic::MultiQueueNic& out_nic,
                           std::uint32_t tx_queue) {
  // The pf_ring slot is recycled as soon as done() runs, so forwarding
  // from a Type-I engine needs one more copy to keep the frame alive
  // until transmission completes.
  QueueState& qs = queues_.at(queue);
  auto keepalive = std::make_shared<std::vector<std::byte>>(
      view.bytes.begin(), view.bytes.end());
  ++qs.stats.copies;
  nic::TxRequest request;
  request.frame = {keepalive->data(), keepalive->size()};
  request.wire_length = view.wire_len;
  request.seq = view.seq;
  request.on_complete = [keepalive] {};
  const bool ok = out_nic.transmit(tx_queue, std::move(request));
  done(queue, view);
  return ok;
}

void PfRingEngine::set_data_callback(std::uint32_t queue,
                                     std::function<void()> fn) {
  queues_.at(queue).data_callback = std::move(fn);
}

EngineQueueStats PfRingEngine::queue_stats(std::uint32_t queue) const {
  return queues_.at(queue).stats;
}

void PfRingEngine::bind_telemetry(telemetry::Telemetry& telemetry,
                                  const std::string& prefix,
                                  std::uint32_t num_queues) {
  CaptureEngine::bind_telemetry(telemetry, prefix, num_queues);
  for (std::uint32_t q = 0; q < num_queues && q < queues_.size(); ++q) {
    const std::string qp = prefix + ".q" + std::to_string(q) + ".";
    telemetry.registry.bind_gauge(qp + "pf_ring.depth", [this, q] {
      return static_cast<double>(queues_[q].count);
    });
    telemetry.registry.bind_gauge(qp + "pf_ring.slots", [this] {
      return static_cast<double>(config_.pf_ring_slots);
    });
  }
}

}  // namespace wirecap::engines
