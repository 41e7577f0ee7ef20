#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::sim {

void Scheduler::schedule_at(Nanos when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  heap_.push_back(Event{when, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint64_t Scheduler::run() {
  std::uint64_t executed = 0;
  while (step()) ++executed;
  return executed;
}

std::uint64_t Scheduler::run_until(Nanos deadline) {
  std::uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    if (step()) ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  // Move the event out and pop it before running, so the callback may
  // schedule (and grow the heap) freely.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  now_ = event.when;
  event.fn();
  return true;
}

}  // namespace wirecap::sim
