#include "engines/dpdk_engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace wirecap::engines {
namespace {

/// Packets consumed per rx_burst call.
constexpr std::size_t kBurstSize = 32;
/// Per-packet application-side cost of popping the software ring.
constexpr Nanos kRxCost{7};
/// Per-packet cost of the RX lcore's burst receive path (descriptor
/// refill amortized), charged to the lcore.
constexpr Nanos kIoCost{12};
/// RX lcore poll interval when the ring is empty.
constexpr Nanos kPollInterval = Nanos::from_micros(50);
/// Extra per-packet cost of the application-layer redirection
/// (software-queue enqueue + synchronization), charged to the sender.
constexpr Nanos kAppOffloadCost{120};

}  // namespace

DpdkEngine::DpdkEngine(sim::Scheduler& scheduler, nic::MultiQueueNic& nic,
                       DpdkConfig config)
    : scheduler_(scheduler), nic_(nic), config_(config) {
  if (config_.mempool_size <= nic.config().rx_ring_size) {
    throw std::invalid_argument(
        "DpdkEngine: mempool must exceed the ring size");
  }
  queues_.resize(nic_.config().num_rx_queues);
}

Nanos DpdkEngine::app_overhead_per_packet() const { return kRxCost; }

std::span<std::byte> DpdkEngine::mbuf_bytes(QueueState& qs,
                                            std::uint32_t mbuf) {
  return {qs.mempool.data() +
              static_cast<std::size_t>(mbuf) * nic::kMaterializedBytes,
          nic::kMaterializedBytes};
}

void DpdkEngine::open(std::uint32_t queue, sim::SimCore& app_core) {
  QueueState& qs = queues_.at(queue);
  if (qs.open) return;
  qs.open = true;
  qs.app_core = &app_core;
  qs.mempool.resize(static_cast<std::size_t>(config_.mempool_size) *
                    nic::kMaterializedBytes);
  qs.free_mbufs.resize(config_.mempool_size);
  std::iota(qs.free_mbufs.rbegin(), qs.free_mbufs.rend(), 0u);

  nic::RxRing& ring = nic_.rx_ring(queue);
  for (std::uint32_t i = 0; i < nic_.config().rx_ring_size; ++i) {
    const std::uint32_t mbuf = qs.free_mbufs.back();
    qs.free_mbufs.pop_back();
    ring.attach(nic::DmaBuffer{mbuf_bytes(qs, mbuf), mbuf});
  }
  nic_.kick(queue);
  // The queue's dedicated RX lcore: poll-mode, no interrupts.
  qs.io_core = std::make_unique<sim::SimCore>(
      scheduler_, 2000 + nic_.nic_id() * 64 + queue);
  io_poll(queue);
}

void DpdkEngine::io_poll(std::uint32_t queue) {
  QueueState& qs = queues_[queue];
  if (!qs.open) return;
  std::size_t received = 0;
  while (true) {
    const std::size_t n = rx_burst(queue);
    if (n == 0) break;
    received += n;
  }
  const Nanos cost{static_cast<std::int64_t>(received) * kIoCost.count()};
  qs.io_core->submit(sim::WorkPriority::kUser, cost,
                     [this, queue, received] {
    QueueState& state = queues_[queue];
    if (!state.open) return;
    if (received > 0) {
      io_poll(queue);
    } else {
      scheduler_.schedule_after(kPollInterval,
                                [this, queue] { io_poll(queue); });
    }
  });
}

void DpdkEngine::close(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  qs.open = false;  // the lcore poll loop exits on its next wakeup
  qs.data_callback = nullptr;
}

TenantId DpdkEngine::register_tenant(const TenantSpec& spec) {
  for (const std::uint32_t q : spec.queues) {
    if (!queues_.at(q).open) {
      throw std::logic_error("DpdkEngine: peer queue not open");
    }
  }
  const TenantId id = CaptureEngine::register_tenant(spec);
  // Rebuild every queue's peer list from the registry so queues a new
  // spec claimed from another tenant drop their stale peers too.
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    queues_[q].peers.clear();
    const TenantId owner = tenant_of(q);
    if (owner == kNoTenant) continue;
    for (const std::uint32_t other : tenants()[owner].queues) {
      if (other != q) queues_[q].peers.push_back(other);
    }
  }
  return id;
}

std::uint32_t DpdkEngine::in_use(std::uint32_t queue) const {
  const QueueState& qs = queues_.at(queue);
  return config_.mempool_size -
         static_cast<std::uint32_t>(qs.free_mbufs.size());
}

std::size_t DpdkEngine::rx_burst(std::uint32_t queue) {
  QueueState& qs = queues_[queue];
  nic::RxRing& ring = nic_.rx_ring(queue);

  // Top up descriptors lost to earlier mempool exhaustion.
  while (ring.empty_slots() > 0 && !qs.free_mbufs.empty()) {
    const std::uint32_t mbuf = qs.free_mbufs.back();
    qs.free_mbufs.pop_back();
    ring.attach(nic::DmaBuffer{mbuf_bytes(qs, mbuf), mbuf});
  }

  std::vector<PacketHandle> burst;
  while (burst.size() < kBurstSize && ring.has_filled()) {
    const auto consumed = ring.consume();
    PacketHandle handle;
    handle.owner_queue = queue;
    handle.mbuf = static_cast<std::uint32_t>(consumed.buffer.cookie);
    handle.length = consumed.writeback.length;
    handle.wire_length = consumed.writeback.wire_length;
    handle.timestamp = consumed.writeback.timestamp;
    handle.seq = consumed.writeback.seq;
    burst.push_back(handle);
    // Refill the descriptor immediately from the mempool — this is what
    // makes DPDK's buffering mempool-bound rather than ring-bound.
    if (!qs.free_mbufs.empty()) {
      const std::uint32_t mbuf = qs.free_mbufs.back();
      qs.free_mbufs.pop_back();
      ring.attach(nic::DmaBuffer{mbuf_bytes(qs, mbuf), mbuf});
    }
  }
  nic_.kick(queue);
  if (burst.empty()) return 0;

  // The application-layer offloading a DPDK application must hand-roll:
  // when this thread's backlog exceeds the threshold, redirect the burst
  // to the least busy peer through a software queue, paying the
  // synchronization cost on this thread's core.
  if (config_.app_offload && !qs.peers.empty()) {
    const double backlog_fraction =
        static_cast<double>(in_use(queue)) /
        static_cast<double>(config_.mempool_size);
    if (backlog_fraction > config_.app_offload_threshold) {
      std::uint32_t target = queue;
      std::size_t best = qs.local.size() + qs.inbound.size();
      for (const std::uint32_t peer : qs.peers) {
        const std::size_t peer_backlog =
            queues_[peer].local.size() + queues_[peer].inbound.size();
        if (peer_backlog < best) {
          best = peer_backlog;
          target = peer;
        }
      }
      if (target != queue) {
        QueueState& ts = queues_[target];
        for (const auto& handle : burst) ts.inbound.push_back(handle);
        qs.stats.chunks_offloaded_out += 1;
        ts.stats.chunks_offloaded_in += 1;
        // The redirection machinery (enqueue + synchronization) runs on
        // this queue's lcore.
        qs.io_core->submit(
            sim::WorkPriority::kUser,
            Nanos{static_cast<std::int64_t>(burst.size()) *
                  kAppOffloadCost.count()},
            [] {});
        if (ts.data_callback) ts.data_callback();
        return burst.size();
      }
    }
  }

  for (const auto& handle : burst) qs.local.push_back(handle);
  if (qs.data_callback) qs.data_callback();
  return burst.size();
}

std::optional<CaptureView> DpdkEngine::try_next(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  if (!qs.open) return std::nullopt;

  PacketHandle handle;
  if (!qs.inbound.empty()) {
    handle = qs.inbound.front();
    qs.inbound.pop_front();
  } else if (!qs.local.empty()) {
    handle = qs.local.front();
    qs.local.pop_front();
  } else {
    return std::nullopt;
  }

  QueueState& owner = queues_[handle.owner_queue];
  CaptureView view;
  view.bytes = mbuf_bytes(owner, handle.mbuf).first(handle.length);
  view.wire_len = handle.wire_length;
  view.timestamp = handle.timestamp;
  view.seq = handle.seq;
  view.handle = pack(handle);
  ++qs.stats.delivered;
  return view;
}

void DpdkEngine::release(const PacketHandle& handle) {
  queues_[handle.owner_queue].free_mbufs.push_back(handle.mbuf);
}

void DpdkEngine::done(std::uint32_t /*queue*/, const CaptureView& view) {
  PacketHandle handle;
  handle.owner_queue = static_cast<std::uint32_t>(view.handle >> 32);
  handle.mbuf = static_cast<std::uint32_t>(view.handle & 0xFFFFFFFF);
  release(handle);
}

bool DpdkEngine::forward(std::uint32_t queue, const CaptureView& view,
                         nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) {
  nic::TxRequest request;
  request.frame = view.bytes;
  request.wire_length = view.wire_len;
  request.seq = view.seq;
  request.on_complete = [this, queue, handle = view.handle] {
    CaptureView view_copy;
    view_copy.handle = handle;
    done(queue, view_copy);
  };
  if (!out_nic.transmit(tx_queue, std::move(request))) {
    done(queue, view);
    return false;
  }
  return true;
}

void DpdkEngine::set_data_callback(std::uint32_t queue,
                                   std::function<void()> fn) {
  queues_.at(queue).data_callback = std::move(fn);
}

EngineQueueStats DpdkEngine::queue_stats(std::uint32_t queue) const {
  return queues_.at(queue).stats;
}

void DpdkEngine::bind_telemetry(telemetry::Telemetry& telemetry,
                                const std::string& prefix,
                                std::uint32_t num_queues) {
  CaptureEngine::bind_telemetry(telemetry, prefix, num_queues);
  for (std::uint32_t q = 0; q < num_queues && q < queues_.size(); ++q) {
    const std::string qp = prefix + ".q" + std::to_string(q) + ".";
    telemetry.registry.bind_gauge(qp + "mempool.in_use", [this, q] {
      return static_cast<double>(in_use(q));
    });
    telemetry.registry.bind_gauge(qp + "sw_ring.depth", [this, q] {
      return static_cast<double>(queues_[q].local.size() +
                                 queues_[q].inbound.size());
    });
    telemetry.registry.bind_gauge(qp + "io_core.utilization", [this, q] {
      return queues_[q].io_core ? queues_[q].io_core->utilization() : 0.0;
    });
  }
}

}  // namespace wirecap::engines
