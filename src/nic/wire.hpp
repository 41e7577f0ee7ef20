// The wire: delivers a traffic source's packets to a NIC at their
// recorded timestamps — the software stand-in for the paper's hardware
// traffic generator, which "replays captured traffic at the speed
// exactly as recorded" or blasts synthetic packets at wire rate.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "nic/device.hpp"
#include "sim/scheduler.hpp"
#include "trace/source.hpp"

namespace wirecap::nic {

class TrafficInjector {
 public:
  /// Binds `source` to `nic`.  Packets are injected at their timestamps;
  /// call start() once before running the scheduler.
  TrafficInjector(sim::Scheduler& scheduler, trace::TrafficSource& source,
                  MultiQueueNic& nic)
      : scheduler_(scheduler), source_(source), nic_(nic) {}

  void start() { schedule_next(); }

  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  // At most one packet is in flight: each arrival schedules the next.
  // The packet waits in `pending_`, so the arrival event captures only
  // `this` and needs no heap allocation.
  void schedule_next() {
    auto packet = source_.next();
    if (!packet) return;
    pending_ = std::move(*packet);
    scheduler_.schedule_at(pending_.timestamp(), [this] { arrive(); });
  }

  void arrive() {
    nic_.receive(pending_);
    ++injected_;
    schedule_next();
  }

  sim::Scheduler& scheduler_;
  trace::TrafficSource& source_;
  MultiQueueNic& nic_;
  net::WirePacket pending_;
  std::uint64_t injected_ = 0;
};

}  // namespace wirecap::nic
