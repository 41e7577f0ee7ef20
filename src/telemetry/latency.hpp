// End-to-end latency observability for the chunk data path.
//
// Three pieces, all fixed-memory so they can sit on the hot path:
//
//  * HdrHistogram — an HDR-style log-linear histogram over integer
//    nanosecond values.  Each power-of-two octave is split into 32
//    linear sub-buckets, bounding relative quantile error at ~3.1%
//    while keeping the whole structure a flat 1920-counter array
//    (~15 KiB).  Values below 32 ns are exact.
//
//  * ChunkJourney / LatencyTracker — one journey record per chunk,
//    stamped at each lifecycle transition (arrival → captured →
//    enqueued → dequeued → released); the tracker folds completed
//    journeys into per-queue, per-stage histograms.  A single
//    `enabled()` flag gates every stamp so the disabled cost is one
//    predicted branch (the pattern EventTracer established).
//
//  * FlightRecorder — a ring of recently completed journeys plus a
//    retained list of outliers (end-to-end latency above a
//    configurable threshold), so a p999 spike is explainable from its
//    full span sequence, not just visible in a histogram.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace wirecap::telemetry {

/// Log-linear fixed-memory histogram of non-negative nanosecond values.
///
/// Layout: indices [0, 32) hold values 0..31 exactly; above that each
/// octave `o` (values [2^o, 2^(o+1))) is split into 32 linear
/// sub-buckets of width 2^(o-5).  Recording is a handful of bit
/// operations; quantiles interpolate uniformly within the hit bucket.
class HdrHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;  // 32
  /// Octaves 5..63 (values 32 .. 2^64-1) each contribute kSubBuckets.
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 1920

  void record(std::int64_t value_ns) {
    const std::uint64_t v =
        value_ns < 0 ? 0u : static_cast<std::uint64_t>(value_ns);
    counts_[index_of(v)] += 1;
    count_ += 1;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t max_value() const { return max_; }

  /// Value at quantile q in [0, 1], interpolated within the bucket;
  /// returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  void merge(const HdrHistogram& other);
  void reset();

  /// Inclusive lower bound of bucket `index` (exposed for tests).
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t index);
  /// Width of bucket `index` (exposed for tests).
  [[nodiscard]] static std::uint64_t bucket_width(std::size_t index);

  [[nodiscard]] static std::size_t index_of(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const std::uint32_t octave =
        static_cast<std::uint32_t>(std::bit_width(v)) - 1;
    const std::uint64_t sub =
        (v - (std::uint64_t{1} << octave)) >> (octave - kSubBucketBits);
    return kSubBuckets +
           static_cast<std::size_t>(octave - kSubBucketBits) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// One chunk's trip through the data path, stamped in virtual time.
/// A field of -1 means "stage not reached".  `ring` is the owning
/// ring (pool) the chunk recycles to; `dequeue_queue` is the queue an
/// application popped it from (differs from `ring` after offloading).
struct ChunkJourney {
  std::uint32_t ring = 0;
  std::uint32_t chunk = 0;
  std::uint32_t pkt_count = 0;
  std::uint32_t dequeue_queue = 0;
  bool rescued = false;
  /// Deposited into a buddy's steal inbox by the offload handoff rather
  /// than pushed onto the home queue.
  bool stolen = false;
  std::int64_t arrival_ns = -1;   // first-cell NIC writeback timestamp
  std::int64_t captured_ns = -1;  // capture ioctl completed
  std::int64_t enqueued_ns = -1;  // pushed onto a capture queue
  std::int64_t dequeued_ns = -1;  // popped by an application
  std::int64_t released_ns = -1;  // last reference dropped / recycled

  [[nodiscard]] bool complete() const {
    return arrival_ns >= 0 && captured_ns >= arrival_ns &&
           enqueued_ns >= captured_ns && dequeued_ns >= enqueued_ns &&
           released_ns >= dequeued_ns;
  }
  [[nodiscard]] std::int64_t e2e_ns() const { return released_ns - arrival_ns; }
  [[nodiscard]] std::int64_t capture_ns() const {
    return captured_ns - arrival_ns;
  }
  [[nodiscard]] std::int64_t queue_wait_ns() const {
    return dequeued_ns - captured_ns;
  }
  [[nodiscard]] std::int64_t deliver_ns() const {
    return released_ns - dequeued_ns;
  }
};

/// Ring of recent journeys plus retained outliers.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;
  static constexpr std::size_t kMaxRetained = 64;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void set_threshold(Nanos threshold) { threshold_ = threshold; }
  [[nodiscard]] Nanos threshold() const { return threshold_; }

  /// Record a completed journey; retains it as an outlier when its
  /// end-to-end latency meets the threshold.
  void push(const ChunkJourney& journey);

  /// Recent journeys, oldest first.
  [[nodiscard]] std::vector<ChunkJourney> recent() const;
  [[nodiscard]] const std::vector<ChunkJourney>& outliers() const {
    return outliers_;
  }
  /// Total outliers seen (retention caps at kMaxRetained).
  [[nodiscard]] std::uint64_t outliers_seen() const { return outliers_seen_; }

  /// Human-readable dump of retained outliers with per-stage deltas.
  [[nodiscard]] std::string dump() const;

  void clear();

 private:
  std::vector<ChunkJourney> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t size_ = 0;   // valid entries
  Nanos threshold_ = Nanos::from_millis(1);
  std::vector<ChunkJourney> outliers_;
  std::uint64_t outliers_seen_ = 0;
};

/// Per-queue, per-stage latency aggregation for the capture engine.
/// Lives inside Telemetry; the engine holds a pointer and gates every
/// stamp on `enabled()`.
class LatencyTracker {
 public:
  enum class Stage : std::uint8_t { kE2e, kCapture, kQueueWait, kDeliver };

  struct StageHistograms {
    HdrHistogram e2e;
    HdrHistogram capture;
    HdrHistogram queue_wait;
    HdrHistogram deliver;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void set_outlier_threshold(Nanos threshold) {
    recorder_.set_threshold(threshold);
  }

  /// Folds a completed journey into the owning ring's histograms and
  /// the flight recorder.  Incomplete journeys are counted and
  /// discarded (a chunk captured before enabling, or released on a
  /// non-delivery path, has no meaningful span sequence).
  void record_journey(const ChunkJourney& journey);

  [[nodiscard]] std::uint64_t journeys_recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t journeys_incomplete() const {
    return incomplete_;
  }

  /// Quantile of one stage on one queue; 0 when the queue has no data.
  [[nodiscard]] double stage_quantile(std::uint32_t queue, Stage stage,
                                      double q) const;
  [[nodiscard]] const StageHistograms* queue_histograms(
      std::uint32_t queue) const {
    return queue < queues_.size() ? &queues_[queue] : nullptr;
  }

  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

  void reset();

 private:
  bool enabled_ = false;
  std::vector<StageHistograms> queues_;
  FlightRecorder recorder_;
  std::uint64_t recorded_ = 0;
  std::uint64_t incomplete_ = 0;
};

}  // namespace wirecap::telemetry
