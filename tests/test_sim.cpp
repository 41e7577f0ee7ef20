// Unit tests for the discrete-event substrate: scheduler ordering and
// copy-free dispatch, simulated-core rate behaviour and priority
// starvation (the receive-livelock ingredient), and the I/O bus model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.hpp"
#include "sim/core.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(Nanos{30}, [&] { order.push_back(3); });
  scheduler.schedule_at(Nanos{10}, [&] { order.push_back(1); });
  scheduler.schedule_at(Nanos{20}, [&] { order.push_back(2); });
  EXPECT_EQ(scheduler.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), Nanos{30});
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule_at(Nanos{100}, [&, i] { order.push_back(i); });
  }
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.schedule_at(Nanos{50}, [&] { ++fired; });
  scheduler.schedule_at(Nanos{150}, [&] { ++fired; });
  scheduler.run_until(Nanos{100});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(scheduler.now(), Nanos{100});
  scheduler.run_until(Nanos{200});
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, SameTimestampRunsInInsertionOrderAcrossReentry) {
  // Events a callback schedules at the current time run after the
  // events already queued for that time, in the order scheduled.
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(Nanos{7}, [&] {
    order.push_back(0);
    scheduler.schedule_at(Nanos{7}, [&] { order.push_back(3); });
    scheduler.schedule_after(Nanos{0}, [&] { order.push_back(4); });
  });
  scheduler.schedule_at(Nanos{7}, [&] { order.push_back(1); });
  scheduler.schedule_at(Nanos{7}, [&] { order.push_back(2); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/// Counts copies of itself; moves are free.  A scheduler that copies an
/// event (or its callback) on the way through shows up as copies > 0.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* c, int* k) : copies(c), calls(k) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&& other) noexcept = default;
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    calls = other.calls;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
  ~CopyCounter() = default;
  void operator()() const { ++*calls; }
};

TEST(Scheduler, ScheduleAndStepMakeNoCopies) {
  Scheduler scheduler;
  int copies = 0;
  int calls = 0;
  // Enough events that the heap sifts them around.
  for (int i = 0; i < 64; ++i) {
    scheduler.schedule_at(Nanos{(i * 37) % 64}, CopyCounter{&copies, &calls});
  }
  while (scheduler.step()) {
  }
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(copies, 0);
}

TEST(Scheduler, CallbackMaySchedule) {
  Scheduler scheduler;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) scheduler.schedule_after(Nanos{10}, step);
  };
  scheduler.schedule_after(Nanos{0}, step);
  scheduler.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(scheduler.now(), Nanos{40});
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler scheduler;
  scheduler.schedule_at(Nanos{100}, [] {});
  scheduler.run();
  EXPECT_THROW(scheduler.schedule_at(Nanos{50}, [] {}), std::invalid_argument);
}

TEST(SimCore, SerializesWork) {
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  std::vector<std::int64_t> completion_times;
  for (int i = 0; i < 3; ++i) {
    core.submit(WorkPriority::kUser, Nanos{100}, [&] {
      completion_times.push_back(scheduler.now().count());
    });
  }
  scheduler.run();
  EXPECT_EQ(completion_times, (std::vector<std::int64_t>{100, 200, 300}));
  EXPECT_EQ(core.busy_time(), Nanos{300});
}

TEST(SimCore, SpeedScaling) {
  Scheduler scheduler;
  SimCore slow{scheduler, 0, 1.2};  // half of the 2.4 GHz reference
  std::int64_t done_at = 0;
  slow.submit(WorkPriority::kUser, Nanos{100},
              [&] { done_at = scheduler.now().count(); });
  scheduler.run();
  EXPECT_EQ(done_at, 200);
}

TEST(SimCore, KernelWorkStarvesUserWork) {
  // The receive-livelock mechanism: a stream of kernel-priority items
  // keeps jumping ahead of queued user work.
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  std::int64_t user_done_at = -1;
  int kernel_done = 0;

  // Feed 10 kernel items; each completion enqueues the next, emulating
  // NAPI polling under sustained arrivals.
  std::function<void()> kernel_feed = [&] {
    ++kernel_done;
    if (kernel_done < 10) {
      core.submit(WorkPriority::kKernel, Nanos{100}, kernel_feed);
    }
  };
  core.submit(WorkPriority::kKernel, Nanos{100}, kernel_feed);
  core.submit(WorkPriority::kUser, Nanos{100},
              [&] { user_done_at = scheduler.now().count(); });
  scheduler.run();
  // All 10 kernel items ran before the single user item.
  EXPECT_EQ(user_done_at, 1100);
}

TEST(SimCore, UtilizationReflectsBusyFraction) {
  Scheduler scheduler;
  SimCore core{scheduler, 0};
  core.submit(WorkPriority::kUser, Nanos{250}, [] {});
  scheduler.schedule_at(Nanos{1000}, [] {});
  scheduler.run();
  EXPECT_NEAR(core.utilization(), 0.25, 1e-9);
}

TEST(IoBus, UnconstrainedCompletesSynchronously) {
  Scheduler scheduler;
  IoBus bus{scheduler};
  bool done = false;
  bus.issue(5.0, [&] { done = true; });
  EXPECT_TRUE(done);  // no scheduling round-trip
  EXPECT_DOUBLE_EQ(bus.total_transactions(), 5.0);
}

TEST(IoBus, ConstrainedSerializesAtCapacity) {
  Scheduler scheduler;
  IoBus bus{scheduler, Rate{1e6}};  // 1 transaction per microsecond
  std::vector<std::int64_t> completions;
  for (int i = 0; i < 3; ++i) {
    bus.issue(1.0, [&] { completions.push_back(scheduler.now().count()); });
  }
  scheduler.run();
  EXPECT_EQ(completions, (std::vector<std::int64_t>{1000, 2000, 3000}));
}

TEST(IoBus, BacklogDelayGrowsUnderOverload) {
  Scheduler scheduler;
  IoBus bus{scheduler, Rate{1e6}};
  for (int i = 0; i < 100; ++i) bus.issue(1.0, [] {});
  EXPECT_EQ(bus.current_backlog_delay(), Nanos::from_micros(100));
}

TEST(CostModel, PktHandlerRateMatchesPaper) {
  // x = 300 at 2.4 GHz must give the paper's 38,844 p/s.
  const CostModel costs;
  const Nanos per_packet = costs.pkt_handler_cost(300);
  const double rate = 1e9 / static_cast<double>(per_packet.count());
  EXPECT_NEAR(rate, kPaperPktHandlerRate300, 40.0);
}

}  // namespace
}  // namespace wirecap::sim
