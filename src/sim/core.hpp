// A simulated CPU core.
//
// A core executes work items serially.  Each item carries a cost in
// virtual nanoseconds and a priority: kKernel work (NAPI polling, softirq
// packet copies) runs ahead of kUser work (application packet
// processing), exactly as softirq context pre-empts user context in
// Linux.  This asymmetry is what reproduces PF_RING's receive-livelock
// behaviour in Table 1: at high arrival rates the per-packet kernel copy
// work monopolizes the core and the user-space consumer starves.
//
// Scheduling is non-pre-emptive at item granularity (an item in progress
// finishes), which matches per-packet softirq work being short.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/units.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::sim {

enum class WorkPriority : std::uint8_t { kKernel = 0, kUser = 1 };

class SimCore {
 public:
  /// `id` names the core in logs and stats; `speed_ghz` scales all costs
  /// (costs are calibrated at 2.4 GHz, the paper's CPU frequency).
  SimCore(Scheduler& scheduler, std::uint32_t id, double speed_ghz = 2.4);

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// Submits a work item costing `cost` (at 2.4 GHz reference speed) and
  /// invokes `done` when it completes.  Items of equal priority run FIFO.
  void submit(WorkPriority priority, Nanos cost, std::function<void()> done);

  /// Total busy virtual time accumulated, for utilization reporting.
  [[nodiscard]] Nanos busy_time() const { return busy_time_; }

  /// Work items currently queued (not yet started).
  [[nodiscard]] std::size_t backlog() const {
    return kernel_queue_.size() + user_queue_.size();
  }

  [[nodiscard]] bool idle() const { return !running_ && backlog() == 0; }

  /// Utilization in [0,1] over the window [0, now].
  [[nodiscard]] double utilization() const;

 private:
  struct WorkItem {
    Nanos cost;
    std::function<void()> done;
  };

  void start_next();
  /// Completion event of the running item: runs its callback, then
  /// starts the next queued item or goes idle.
  void finish_running();

  Scheduler& scheduler_;
  std::uint32_t id_;
  double speed_scale_;  // reference 2.4 GHz / actual speed
  std::deque<WorkItem> kernel_queue_;
  std::deque<WorkItem> user_queue_;
  bool running_ = false;
  /// Callback of the running item.  Held here rather than in the
  /// scheduled event, whose lambda then captures only `this` and fits
  /// std::function's small buffer.
  std::function<void()> running_done_;
  Nanos busy_time_ = Nanos::zero();
};

}  // namespace wirecap::sim
