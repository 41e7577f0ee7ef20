#include "sim/bus.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wirecap::sim {

IoBus::IoBus(Scheduler& scheduler, Rate capacity)
    : scheduler_(scheduler), capacity_(capacity) {}

void IoBus::account(double transactions) {
  if (transactions < 0.0) {
    throw std::invalid_argument("IoBus: negative transaction count");
  }
  total_ += transactions;
}

Nanos IoBus::reserve(double transactions) {
  const Nanos service = Nanos::from_seconds(transactions / capacity_.per_second());
  const Nanos start = std::max(scheduler_.now(), busy_until_);
  busy_until_ = start + service;
  return busy_until_;
}

Nanos IoBus::current_backlog_delay() const {
  if (unconstrained()) return Nanos::zero();
  const Nanos now = scheduler_.now();
  return busy_until_ > now ? busy_until_ - now : Nanos::zero();
}

}  // namespace wirecap::sim
