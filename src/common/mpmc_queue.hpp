// A bounded multi-producer/multi-consumer queue with blocking and
// non-blocking interfaces.
//
// Used where multiple threads share one endpoint: the chunk free-list of a
// ring buffer pool (recycled by any application thread, consumed by the
// capture thread) and the live examples' real-thread queues.  A
// mutex+condvar implementation is deliberately chosen over a lock-free one:
// these paths are not per-packet (they are per-*chunk*, i.e. amortized over
// M packets), and the blocking semantics match the paper's blocking capture
// operation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/handoff.hpp"

namespace wirecap {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("MpmcQueue: capacity must be positive");
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  /// Non-blocking push; returns false when full or closed.  Callers
  /// that must tell those apart — or need the depth the push produced —
  /// use push_result().
  bool try_push(T value) {
    return push_result(std::move(value)).ok();
  }

  /// Non-blocking push distinguishing "full" (backpressure, retry) from
  /// "closed" (permanent, fall home).  `depth` is the queue size right
  /// after the push, read under the same lock — the exact value
  /// high-water accounting needs, immune to a racing consumer popping
  /// before a separate size() call.
  PushOutcome push_result(T value) {
    PushOutcome outcome;
    {
      std::lock_guard lock(mutex_);
      if (closed_) return {PushResult::kClosed, items_.size()};
      if (items_.size() >= capacity_) return {PushResult::kFull, items_.size()};
      items_.push_back(std::move(value));
      outcome = {PushResult::kOk, items_.size()};
    }
    not_empty_.notify_one();
    return outcome;
  }

  /// Non-blocking pop; returns nullopt when empty.
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      std::lock_guard lock(mutex_);
      if (items_.empty()) return std::nullopt;
      value = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking batched pop: moves up to `max` items into `out` under
  /// a single lock acquisition with one notify, instead of max lock
  /// round-trips.  Returns the number of items moved.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t n = 0;
    {
      std::lock_guard lock(mutex_);
      while (n < max && !items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
      }
    }
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Blocking pop; returns nullopt only once the queue is closed *and*
  /// drained.
  std::optional<T> pop() {
    std::optional<T> value;
    {
      std::unique_lock lock(mutex_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;
      value = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Blocking push; returns false once closed.
  bool push(T value) {
    {
      std::unique_lock lock(mutex_);
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Marks the queue closed: producers fail, consumers drain then see
  /// nullopt.  Idempotent.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  /// Copy of the current contents, oldest first.  For introspection
  /// (conservation censuses, tests); the snapshot is stale the moment
  /// the lock drops, so use it only when producers/consumers are
  /// quiesced or approximate answers are acceptable.
  [[nodiscard]] std::deque<T> snapshot() const {
    std::lock_guard lock(mutex_);
    return items_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace wirecap
