// Deterministic discrete-event scheduler.
//
// Every experiment in this reproduction runs on virtual time: packet
// arrivals, DMA completions, capture-thread polls and application
// processing are all events ordered by (timestamp, insertion sequence).
// Ties are broken by insertion order, so runs are bit-for-bit repeatable.
//
// The event path allocates nothing beyond what the callback itself
// needs: events live in a binary heap over one std::vector, and each is
// moved (never copied) out of the heap before it runs.  A scheduled
// event always runs; there is no cancellation (a component that may no
// longer want its event checks its own state when the callback fires).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace wirecap::sim {

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (>= now).
  void schedule_at(Nanos when, Callback fn);

  /// Schedules `fn` after a relative delay (>= 0).
  void schedule_after(Nanos delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty.  Returns the number executed.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline`; afterwards now() ==
  /// max(now, deadline).  Returns the number executed.
  std::uint64_t run_until(Nanos deadline);

  /// Executes the single next event, if any.  Returns false when empty.
  bool step();

 private:
  struct Event {
    Nanos when;
    std::uint64_t seq;
    Callback fn;
  };
  /// Heap order: the earliest (when, seq) is at the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
};

}  // namespace wirecap::sim
