// Single-producer single-consumer ring for the lock-free chunk handoff
// fast path.  One producer (the driver dispatch running on the capture
// thread) publishes chunk descriptors; one consumer (the application
// thread) drains them — no mutex, no condvar, acquire/release only.
//
// Layout follows the classic Lamport ring with two refinements from
// production packet rings (netsniff-ng, DPDK rte_ring):
//   * free-running 64-bit head/tail counters masked by a power-of-two
//     capacity, so full vs empty needs no wasted slot and depth is a
//     plain subtraction;
//   * each side keeps a cached copy of the peer's counter on its own
//     cache line and only re-reads the shared atomic when the cached
//     value would block, cutting cross-core traffic to ~1 coherence
//     miss per wraparound instead of per operation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/handoff.hpp"

namespace wirecap {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (min 2).
  explicit SpscRing(std::size_t min_capacity) {
    if (min_capacity == 0) {
      throw std::invalid_argument{"SpscRing capacity must be > 0"};
    }
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side.  Never blocks; reports the depth observed right
  /// after publication (includes the pushed element), which is what
  /// high-water accounting must record — a later size() call can race
  /// the consumer and miss the peak this push created.
  PushOutcome try_push(T value) {
    if (closed_.load(std::memory_order_acquire)) {
      return {PushResult::kClosed, depth_after(tail_.load(std::memory_order_relaxed))};
    }
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        return {PushResult::kFull, depth_after(tail)};
      }
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    // A consumer racing this push may already have popped the element
    // (head == tail + 1).  Clamping head to the pre-push tail keeps the
    // element just pushed in the count, so the depth is always >= 1.
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return {PushResult::kOk,
            static_cast<std::size_t>(tail + 1 - std::min(head, tail))};
  }

  /// Consumer side.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Batched consumer read: one acquire load of the producer's tail
  /// covers every element moved, one release store retires them all.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = tail_cache_ - head;
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n =
        max < avail ? max : static_cast<std::size_t>(avail);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Instantaneous depth sample.  Exact when either side is quiesced;
  /// otherwise a consistent snapshot of two atomics (never negative:
  /// tail is read after head, and only the producer advances tail).
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

  void close() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  /// Reopens a drained ring (close/reopen fault plans reuse the ring).
  void reopen() { closed_.store(false, std::memory_order_release); }

  /// Copies the current [head, tail) contents.  Only meaningful when
  /// both sides are quiesced (census / close-time sweeps); the engine
  /// runs single-threaded in virtual time, so that always holds there.
  [[nodiscard]] std::vector<T> snapshot() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(tail - head));
    for (std::uint64_t i = head; i != tail; ++i) {
      out.push_back(slots_[i & mask_]);
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t depth_after(std::uint64_t tail) const {
    return static_cast<std::size_t>(tail -
                                    head_.load(std::memory_order_acquire));
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;

  // Producer-owned line: tail counter plus the cached consumer head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head counter plus the cached producer tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  // Rarely written; keep it off both hot lines.
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace wirecap
