#include "sim/core.hpp"

#include <stdexcept>
#include <utility>

namespace wirecap::sim {

SimCore::SimCore(Scheduler& scheduler, std::uint32_t id, double speed_ghz)
    : scheduler_(scheduler), id_(id), speed_scale_(2.4 / speed_ghz) {
  if (speed_ghz <= 0.0) {
    throw std::invalid_argument("SimCore: speed must be positive");
  }
}

void SimCore::submit(WorkPriority priority, Nanos cost,
                     std::function<void()> done) {
  if (cost.count() < 0) {
    throw std::invalid_argument("SimCore: negative work cost");
  }
  auto& queue = priority == WorkPriority::kKernel ? kernel_queue_ : user_queue_;
  queue.push_back(WorkItem{cost, std::move(done)});
  if (!running_) start_next();
}

void SimCore::start_next() {
  WorkItem item = [&] {
    if (!kernel_queue_.empty()) {
      WorkItem front = std::move(kernel_queue_.front());
      kernel_queue_.pop_front();
      return front;
    }
    WorkItem front = std::move(user_queue_.front());
    user_queue_.pop_front();
    return front;
  }();

  running_ = true;
  const Nanos scaled{static_cast<std::int64_t>(
      static_cast<double>(item.cost.count()) * speed_scale_)};
  busy_time_ += scaled;
  running_done_ = std::move(item.done);
  scheduler_.schedule_after(scaled, [this] { finish_running(); });
}

void SimCore::finish_running() {
  // Moved out first: start_next() below installs the next item's
  // callback in running_done_.
  const std::function<void()> done = std::move(running_done_);
  done();
  if (backlog() > 0) {
    start_next();
  } else {
    running_ = false;
  }
}

double SimCore::utilization() const {
  const Nanos now = scheduler_.now();
  if (now.count() <= 0) return 0.0;
  return busy_time_.seconds() / now.seconds();
}

}  // namespace wirecap::sim
