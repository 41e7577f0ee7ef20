// Unit tests for src/common: containers, queues, RNG, statistics, units.
#include <gtest/gtest.h>

#include <numeric>
#include <stop_token>
#include <thread>
#include <vector>

#include "common/handoff.hpp"
#include "common/log.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/steal_inbox.hpp"
#include "common/units.hpp"

namespace wirecap {
namespace {

// --- units ---

TEST(Units, WireRate64BytesIs14_88Mpps) {
  const Rate rate = ethernet::wire_rate(ethernet::k10GbpsBits, 64);
  EXPECT_NEAR(rate.per_second(), 14'880'952.0, 1.0);
}

TEST(Units, WireRate1518BytesIs812Kpps) {
  const Rate rate = ethernet::wire_rate(ethernet::k10GbpsBits, 1518);
  EXPECT_NEAR(rate.per_second(), 812'743.8, 1.0);
}

TEST(Units, NanosArithmetic) {
  const Nanos a = Nanos::from_millis(1.5);
  EXPECT_EQ(a.count(), 1'500'000);
  EXPECT_DOUBLE_EQ(a.seconds(), 0.0015);
  EXPECT_EQ((a + Nanos{500'000}).count(), 2'000'000);
  EXPECT_LT(Nanos{1}, Nanos{2});
}

TEST(Units, RateInterval) {
  const Rate rate{1e6};
  EXPECT_EQ(rate.interval().count(), 1000);
  EXPECT_EQ(rate.events_in(Nanos::from_seconds(2.0)), 2'000'000);
  EXPECT_EQ(Rate{0.0}.interval(), Nanos::max());
}

// --- status ---

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status bad{StatusCode::kExhausted};
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.message(), "exhausted");
}

TEST(Result, ValueAndError) {
  Result<int> good{42};
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, 42);
  Result<int> bad{StatusCode::kNotFound};
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_THROW(static_cast<void>(bad.value()), std::runtime_error);
}

// --- concurrent tests ---
//
// Every worker thread below is a std::jthread, which requests stop and
// joins when its scope exits.  A failed ASSERT returns from the test
// body early; a plain std::thread still joinable at that point would
// call std::terminate and take the rest of the binary with it.  Workers
// that spin on a peer poll their stop token, so the join cannot hang on
// a peer that already left.

// --- SpscRing ---

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(SpscRing<int>{8}.capacity(), 8u);
  EXPECT_EQ(SpscRing<int>{100}.capacity(), 128u);
  EXPECT_THROW(SpscRing<int>{0}, std::invalid_argument);
}

TEST(SpscRing, FifoAndFull) {
  SpscRing<int> ring{4};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i).ok());
  EXPECT_EQ(ring.try_push(99).result, PushResult::kFull);
  EXPECT_EQ(ring.size(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(SpscRing, DepthAtPushIncludesOwnPush) {
  // The producer's PushOutcome::depth is the instrument high-water
  // accounting records: it must count the pushed element itself, so the
  // peak a push creates can never be missed by a racing consumer.
  SpscRing<int> ring{8};
  for (int i = 0; i < 8; ++i) {
    const PushOutcome outcome = ring.try_push(i);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.depth, static_cast<std::size_t>(i) + 1);
  }
}

TEST(SpscRing, WrapAroundManyCycles) {
  // Free-running 64-bit counters masked into a 4-slot array: push/pop
  // far past the capacity and the indexing must stay consistent.
  SpscRing<int> ring{4};
  int v = -1;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(ring.try_push(i).ok());
    ASSERT_TRUE(ring.try_push(i + 1'000'000).ok());
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i + 1'000'000);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PopBatchDrainsInOrder) {
  SpscRing<int> ring{16};
  for (int i = 0; i < 10; ++i) ring.try_push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.try_pop_batch(out, 100), 6u);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.back(), 9);
  EXPECT_EQ(ring.try_pop_batch(out, 4), 0u);
}

TEST(SpscRing, CloseRejectsPushesAndConsumerDrains) {
  SpscRing<int> ring{4};
  ring.try_push(1);
  ring.close();
  EXPECT_EQ(ring.try_push(2).result, PushResult::kClosed);
  int v = -1;
  EXPECT_TRUE(ring.try_pop(v));  // close() never loses queued items
  EXPECT_EQ(v, 1);
  ring.reopen();
  EXPECT_TRUE(ring.try_push(3).ok());
}

TEST(SpscRing, SnapshotSeesQueuedItems) {
  SpscRing<int> ring{8};
  for (int i = 0; i < 5; ++i) ring.try_push(i);
  int v = -1;
  ring.try_pop(v);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{1, 2, 3, 4}));
}

TEST(SpscRing, ConcurrentStressInOrder) {
  // One real producer, one real consumer: all elements arrive exactly
  // once, in order.  (Run under TSan in CI.)
  constexpr int kCount = 200'000;
  SpscRing<int> ring{1024};
  std::jthread producer([&](const std::stop_token& stop) {
    for (int i = 0; i < kCount; ++i) {
      while (!ring.try_push(i).ok()) {
        if (stop.stop_requested()) return;
        std::this_thread::yield();
      }
    }
  });
  long long sum = 0;
  int expected = 0;
  int v = -1;
  while (expected < kCount) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      sum += v;
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(SpscRing, ConcurrentBatchedConsumerConservation) {
  // Batched reads against a live producer: every element arrives once,
  // in order, regardless of how the batches slice the stream.
  constexpr int kCount = 100'000;
  SpscRing<int> ring{256};
  std::jthread producer([&](const std::stop_token& stop) {
    for (int i = 0; i < kCount; ++i) {
      while (!ring.try_push(i).ok()) {
        if (stop.stop_requested()) return;
        std::this_thread::yield();
      }
    }
  });
  std::vector<int> got;
  got.reserve(kCount);
  while (got.size() < kCount) {
    if (ring.try_pop_batch(got, 64) == 0) std::this_thread::yield();
  }
  producer.join();
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(SpscRing, ConcurrentDepthAtPushNeverMissesOwnElement) {
  // The depth-at-push regression: with a consumer popping as fast as it
  // can, a size() read after the push can already see the element gone
  // — the PushOutcome depth must still always include it (>= 1) and
  // never exceed capacity.
  constexpr int kCount = 50'000;
  SpscRing<int> ring{64};
  std::jthread consumer([&](const std::stop_token& stop) {
    int v = -1;
    while (!stop.stop_requested()) {
      if (!ring.try_pop(v)) std::this_thread::yield();
    }
    while (ring.try_pop(v)) {
    }
  });
  std::size_t max_depth = 0;
  for (int i = 0; i < kCount; ++i) {
    PushOutcome outcome = ring.try_push(i);
    while (!outcome.ok()) {
      std::this_thread::yield();
      outcome = ring.try_push(i);
    }
    ASSERT_GE(outcome.depth, 1u);
    ASSERT_LE(outcome.depth, ring.capacity());
    max_depth = std::max(max_depth, outcome.depth);
  }
  consumer.request_stop();
  consumer.join();
  EXPECT_GE(max_depth, 1u);
}

TEST(SpscRing, ConcurrentCloseRace) {
  // Closing while the producer runs: pushes after close observe
  // kClosed, and everything accepted before is still popped exactly
  // once.  (TSan checks the closed flag's synchronization.)
  SpscRing<int> ring{128};
  std::atomic<long long> pushed_sum{0};
  std::atomic<int> pushed_count{0};
  std::jthread producer([&](const std::stop_token& stop) {
    for (int i = 1; i <= 100'000 && !stop.stop_requested(); ++i) {
      const PushOutcome outcome = ring.try_push(i);
      if (outcome.result == PushResult::kClosed) break;
      if (outcome.ok()) {
        pushed_sum += i;
        pushed_count += 1;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int v = -1;
  long long popped_sum = 0;
  int popped = 0;
  while (popped < 1000) {
    if (ring.try_pop(v)) {
      popped_sum += v;
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  ring.close();
  producer.join();
  while (ring.try_pop(v)) {
    popped_sum += v;
    ++popped;
  }
  EXPECT_EQ(popped, pushed_count.load());
  EXPECT_EQ(popped_sum, pushed_sum.load());
}

// --- StealInbox ---

TEST(StealInbox, DepositClaimRoundTrip) {
  StealInbox<int> inbox;
  using Inbox = StealInbox<int>;
  EXPECT_EQ(inbox.try_deposit(7), Inbox::Deposit::kOk);
  EXPECT_EQ(inbox.size_approx(), 1u);
  int v = -1;
  EXPECT_TRUE(inbox.try_claim(v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(inbox.try_claim(v));
}

TEST(StealInbox, FullAfterCapacityDeposits) {
  StealInbox<int, 4> inbox;
  using Inbox = StealInbox<int, 4>;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(inbox.try_deposit(i), Inbox::Deposit::kOk);
  EXPECT_EQ(inbox.try_deposit(99), Inbox::Deposit::kFull);
  // Claiming frees a slot for the next deposit.
  int v = -1;
  EXPECT_TRUE(inbox.try_claim(v));
  EXPECT_EQ(inbox.try_deposit(99), Inbox::Deposit::kOk);
}

TEST(StealInbox, SnapshotSeesReadySlots) {
  StealInbox<int> inbox;
  inbox.try_deposit(1);
  inbox.try_deposit(2);
  const std::vector<int> snap = inbox.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(inbox.size_approx(), 2u);  // snapshot does not claim
}

TEST(StealInbox, MultiProducerConservation) {
  // Four producers race CAS claims on the slots while one consumer
  // drains: every deposited value is claimed exactly once, and the
  // loser-falls-home outcomes (kContended/kFull) lose nothing.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  StealInbox<int, 8> inbox;
  using Inbox = StealInbox<int, 8>;
  std::atomic<long long> deposited_sum{0};
  std::atomic<int> deposited{0};
  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p](const std::stop_token& stop) {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i + 1;
        for (;;) {
          if (stop.stop_requested()) return;
          const Inbox::Deposit outcome = inbox.try_deposit(value);
          if (outcome == Inbox::Deposit::kOk) {
            deposited_sum += value;
            deposited += 1;
            break;
          }
          // kContended or kFull: a real dispatcher would fall home;
          // here we retry so the totals stay comparable.
          std::this_thread::yield();
        }
      }
    });
  }
  long long claimed_sum = 0;
  int claimed = 0;
  const int expected = kProducers * kPerProducer;
  int v = -1;
  while (claimed < expected) {
    if (inbox.try_claim(v)) {
      claimed_sum += v;
      ++claimed;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(claimed, deposited.load());
  EXPECT_EQ(claimed_sum, deposited_sum.load());
  EXPECT_FALSE(inbox.try_claim(v));
}

// --- MpmcQueue ---

TEST(MpmcQueue, TryOperations) {
  MpmcQueue<int> queue{2};
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_EQ(queue.try_pop().value(), 2);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(MpmcQueue, PushResultDistinguishesFullFromClosed) {
  // The bool try_push conflated "full" with "closed"; push_result must
  // tell them apart so a dispatcher can fall home immediately on a
  // closed buddy instead of treating it as transient backpressure.
  MpmcQueue<int> queue{2};
  EXPECT_EQ(queue.push_result(1).result, PushResult::kOk);
  EXPECT_EQ(queue.push_result(2).result, PushResult::kOk);
  EXPECT_EQ(queue.push_result(3).result, PushResult::kFull);
  queue.close();
  EXPECT_EQ(queue.push_result(4).result, PushResult::kClosed);
}

TEST(MpmcQueue, PushResultReportsDepthAtPush) {
  MpmcQueue<int> queue{8};
  for (int i = 0; i < 8; ++i) {
    const PushOutcome outcome = queue.push_result(i);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.depth, static_cast<std::size_t>(i) + 1);
  }
}

TEST(MpmcQueue, TryPopBatch) {
  MpmcQueue<int> queue{16};
  for (int i = 0; i < 10; ++i) queue.try_push(i);
  std::vector<int> out;
  EXPECT_EQ(queue.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(queue.try_pop_batch(out, 100), 6u);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.back(), 9);
  EXPECT_EQ(queue.try_pop_batch(out, 1), 0u);
}

TEST(MpmcQueue, ConcurrentPushResultDepthInvariant) {
  // Under MPMC contention every accepted push's reported depth includes
  // the pushed element and never exceeds capacity, and nothing is lost.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  constexpr std::size_t kCapacity = 64;
  MpmcQueue<int> queue{kCapacity};
  std::atomic<long long> pushed_sum{0};
  std::vector<std::jthread> producers;
  std::atomic<bool> depth_ok{true};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p](const std::stop_token& stop) {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i + 1;
        for (;;) {
          if (stop.stop_requested()) return;
          const PushOutcome outcome = queue.push_result(value);
          if (outcome.ok()) {
            if (outcome.depth < 1 || outcome.depth > kCapacity) {
              depth_ok.store(false);
            }
            pushed_sum += value;
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  long long popped_sum = 0;
  int popped = 0;
  const int expected = kProducers * kPerProducer;
  while (popped < expected) {
    if (const std::optional<int> v = queue.try_pop()) {
      popped_sum += *v;
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(depth_ok.load());
  EXPECT_EQ(popped_sum, pushed_sum.load());
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(MpmcQueue, CloseDrains) {
  MpmcQueue<int> queue{4};
  queue.try_push(1);
  queue.close();
  EXPECT_FALSE(queue.try_push(2));
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(MpmcQueue, MultiThreadedSum) {
  constexpr int kPerProducer = 50'000;
  MpmcQueue<int> queue{256};
  std::atomic<long long> sum{0};
  std::vector<std::jthread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) queue.push(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = queue.pop()) sum += *v;
    });
  }
  for (int p = 0; p < 3; ++p) threads[static_cast<std::size_t>(p)].join();
  queue.close();
  threads[3].join();
  threads[4].join();
  EXPECT_EQ(sum.load(),
            3LL * kPerProducer * (kPerProducer + 1) / 2);
}

// --- RNG ---

TEST(Rng, Deterministic) {
  Xoshiro256 a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Xoshiro256 rng{7};
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (const int count : seen) EXPECT_GT(count, 800);  // roughly uniform
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Xoshiro256 rng{11};
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

// --- stats ---

TEST(BinnedSeries, BinsAtTenMs) {
  BinnedSeries series{Nanos::from_millis(10)};
  series.record(Nanos::from_millis(5));        // bin 0
  series.record(Nanos::from_millis(15));       // bin 1
  series.record(Nanos::from_millis(19.9));     // bin 1
  series.record(Nanos::from_millis(35), 10);   // bin 3
  ASSERT_EQ(series.bin_count(), 4u);
  EXPECT_EQ(series.bin(0), 1u);
  EXPECT_EQ(series.bin(1), 2u);
  EXPECT_EQ(series.bin(2), 0u);
  EXPECT_EQ(series.bin(3), 10u);
  EXPECT_EQ(series.total(), 13u);
  EXPECT_EQ(series.peak(), 10u);
}

TEST(Log, SinkCapturesWholeFormattedLines) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  log_line(LogLevel::kWarn, "test", "hello world");
  log_line(LogLevel::kError, "test", "second");
  set_log_sink(nullptr);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "[warn] test: hello world");
  EXPECT_EQ(lines[1], "[error] test: second");
}

TEST(Log, SinkRespectsLevelFilter) {
  std::vector<std::string> lines;
  set_log_sink([&lines](LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  log_line(LogLevel::kDebug, "test", "below the default kWarn threshold");
  set_log_sink(nullptr);
  EXPECT_TRUE(lines.empty());
}

TEST(Formatting, Thousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(14'880'952), "14,880,952");
}

TEST(Formatting, Percent) {
  EXPECT_EQ(as_percent(0.465), "46.5%");
  EXPECT_EQ(as_percent(0.0), "0.0%");
}

}  // namespace
}  // namespace wirecap
