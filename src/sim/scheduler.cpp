#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::sim {

void EventHandle::cancel() {
  if (const auto owner = owner_.lock()) (*owner)->cancel(seq_);
}

bool EventHandle::pending() const {
  const auto owner = owner_.lock();
  return owner && (*owner)->find(seq_) != (*owner)->heap_.size();
}

EventHandle Scheduler::schedule_at(Nanos when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument("Scheduler: cannot schedule in the past");
  }
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Event{when, seq, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{token_, seq};
}

std::size_t Scheduler::find(std::uint64_t seq) const {
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [seq](const Event& e) { return e.seq == seq; });
  return static_cast<std::size_t>(it - heap_.begin());
}

void Scheduler::cancel(std::uint64_t seq) {
  const std::size_t index = find(seq);
  if (index == heap_.size()) return;  // already ran or cancelled
  heap_[index] = std::move(heap_.back());
  heap_.pop_back();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
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
