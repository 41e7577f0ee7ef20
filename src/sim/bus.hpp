// A shared I/O bus (PCIe + memory path) with finite transaction capacity.
//
// Figure 14 of the paper shows both DNA and WireCAP dropping packets once
// the two NICs together offer ~30 Mp/s of 64-byte packets: "the
// experiment system bus becomes saturated".  The bus model serializes
// transactions at a configurable rate; a DMA packet write is one
// transaction, and WireCAP's chunk attach/capture metadata operations add
// fractional extra transactions per packet, which is why WireCAP pays
// slightly more than DNA under saturation.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/units.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::sim {

class IoBus {
 public:
  /// `capacity` is the sustainable transaction rate.  A default-constructed
  /// bus is infinitely fast (experiments that do not study bus saturation
  /// leave it unconstrained).
  explicit IoBus(Scheduler& scheduler, Rate capacity = Rate{0.0});

  IoBus(const IoBus&) = delete;
  IoBus& operator=(const IoBus&) = delete;

  [[nodiscard]] bool unconstrained() const { return capacity_.is_zero(); }
  [[nodiscard]] Rate capacity() const { return capacity_; }

  /// Issues `transactions` bus transactions (may be fractional: metadata
  /// updates amortized over a chunk).  `done` fires when the last one has
  /// crossed the bus — synchronously inside this call when the bus is
  /// unconstrained, via the scheduler otherwise.  FIFO service discipline.
  /// Only the scheduled path turns `done` into a std::function, so an
  /// unconstrained bus runs the per-packet DMA completion allocation-free.
  template <typename Done>
  void issue(double transactions, Done&& done) {
    account(transactions);
    if (unconstrained()) {
      // Infinitely fast bus: complete synchronously.  Callers are written
      // to tolerate the callback running inside issue() — this removes
      // one scheduled event per packet on the (common) unconstrained path.
      done();
      return;
    }
    scheduler_.schedule_at(reserve(transactions),
                           std::function<void()>(std::forward<Done>(done)));
  }

  /// Total transactions issued, for reporting.
  [[nodiscard]] double total_transactions() const { return total_; }

  /// Current queueing delay a new transaction would experience.
  [[nodiscard]] Nanos current_backlog_delay() const;

 private:
  /// Validates a transaction count and adds it to the total.
  void account(double transactions);
  /// Queues `transactions` behind the bus backlog; returns the virtual
  /// time the last one has crossed.  Constrained bus only.
  Nanos reserve(double transactions);

  Scheduler& scheduler_;
  Rate capacity_;
  Nanos busy_until_ = Nanos::zero();
  double total_ = 0.0;
};

}  // namespace wirecap::sim
