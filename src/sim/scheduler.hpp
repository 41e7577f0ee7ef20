// Deterministic discrete-event scheduler.
//
// Every experiment in this reproduction runs on virtual time: packet
// arrivals, DMA completions, capture-thread polls and application
// processing are all events ordered by (timestamp, insertion sequence).
// Ties are broken by insertion order, so runs are bit-for-bit repeatable.
//
// The event path allocates nothing beyond what the callback itself
// needs: events live in a binary heap over one std::vector, and each is
// moved (never copied) out of the heap before it runs.  Cancellation
// does not tag events; a handle names its event by sequence number and
// looks it up in the heap (see EventHandle).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"

namespace wirecap::sim {

class Scheduler;

/// Handle for a scheduled event; allows cancellation (e.g. a blocking
/// capture whose timeout is pre-empted by packet arrival).  A handle
/// may outlive its scheduler: it then reports nothing pending and
/// cancel() does nothing.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly,
  /// after the event fired, or on a default-constructed handle.  Costs
  /// O(pending events).
  void cancel();

  /// True while the event is scheduled and neither fired nor cancelled
  /// (false inside the event's own callback).  Costs O(pending events).
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(std::weak_ptr<Scheduler*> owner, std::uint64_t seq)
      : owner_(std::move(owner)), seq_(seq) {}

  std::weak_ptr<Scheduler*> owner_;
  std::uint64_t seq_ = 0;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (>= now).
  EventHandle schedule_at(Nanos when, Callback fn);

  /// Schedules `fn` after a relative delay (>= 0).
  EventHandle schedule_after(Nanos delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty.  Returns the number executed.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline`; afterwards now() ==
  /// max(now, deadline).  Returns the number executed.
  std::uint64_t run_until(Nanos deadline);

  /// Executes the single next event, if any.  Returns false when empty.
  bool step();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class EventHandle;

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

  /// Index of the queued event with sequence number `seq`, or
  /// heap_.size() when it already ran or was cancelled.
  [[nodiscard]] std::size_t find(std::uint64_t seq) const;
  void cancel(std::uint64_t seq);

  Nanos now_ = Nanos::zero();
  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
  /// Handles observe this token, allocated once per scheduler: it
  /// expires with the scheduler, which is how an outliving handle
  /// learns its events are gone.
  std::shared_ptr<Scheduler*> token_ =
      std::make_shared<Scheduler*>(this);
};

}  // namespace wirecap::sim
