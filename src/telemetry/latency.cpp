#include "telemetry/latency.hpp"

#include <algorithm>
#include <cstdio>

namespace wirecap::telemetry {

// --- HdrHistogram ---

std::uint64_t HdrHistogram::bucket_floor(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint32_t octave =
      kSubBucketBits +
      static_cast<std::uint32_t>((index - kSubBuckets) / kSubBuckets);
  const std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
  return (std::uint64_t{1} << octave) + (sub << (octave - kSubBucketBits));
}

std::uint64_t HdrHistogram::bucket_width(std::size_t index) {
  if (index < kSubBuckets) return 1;
  const std::uint32_t octave =
      kSubBucketBits +
      static_cast<std::uint32_t>((index - kSubBuckets) / kSubBuckets);
  return std::uint64_t{1} << (octave - kSubBucketBits);
}

double HdrHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (counts_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double within =
          (target - cumulative) / static_cast<double>(counts_[i]);
      const double lo = static_cast<double>(bucket_floor(i));
      const double hi =
          std::min(lo + static_cast<double>(bucket_width(i)),
                   static_cast<double>(max_) + 1.0);
      return lo + within * std::max(0.0, hi - lo);
    }
    cumulative = next;
  }
  // Numeric slack: fall back to the recorded maximum.
  return static_cast<double>(max_);
}

void HdrHistogram::merge(const HdrHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

void HdrHistogram::reset() {
  counts_.fill(0);
  count_ = 0;
  max_ = 0;
}

// --- FlightRecorder ---

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::push(const ChunkJourney& journey) {
  ring_[head_] = journey;
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
  if (journey.e2e_ns() >= threshold_.count()) {
    ++outliers_seen_;
    if (outliers_.size() < kMaxRetained) outliers_.push_back(journey);
  }
}

std::vector<ChunkJourney> FlightRecorder::recent() const {
  std::vector<ChunkJourney> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  outliers_.clear();
  outliers_seen_ = 0;
}

std::string FlightRecorder::dump() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "flight recorder: %llu outliers seen (threshold %lld ns), "
                "%zu retained\n",
                static_cast<unsigned long long>(outliers_seen_),
                static_cast<long long>(threshold_.count()),
                outliers_.size());
  out += line;
  for (const ChunkJourney& j : outliers_) {
    std::snprintf(
        line, sizeof(line),
        "  ring=%u chunk=%u pkts=%u via_queue=%u%s e2e=%lld ns "
        "[capture=%lld enqueue=%lld queue_wait=%lld deliver=%lld]\n",
        j.ring, j.chunk, j.pkt_count, j.dequeue_queue,
        j.rescued ? " rescued" : "", static_cast<long long>(j.e2e_ns()),
        static_cast<long long>(j.capture_ns()),
        static_cast<long long>(j.enqueued_ns - j.captured_ns),
        static_cast<long long>(j.queue_wait_ns()),
        static_cast<long long>(j.deliver_ns()));
    out += line;
  }
  return out;
}

// --- LatencyTracker ---

void LatencyTracker::record_journey(const ChunkJourney& journey) {
  if (!journey.complete()) {
    ++incomplete_;
    return;
  }
  if (journey.ring >= queues_.size()) queues_.resize(journey.ring + 1);
  StageHistograms& h = queues_[journey.ring];
  h.e2e.record(journey.e2e_ns());
  h.capture.record(journey.capture_ns());
  h.queue_wait.record(journey.queue_wait_ns());
  h.deliver.record(journey.deliver_ns());
  recorder_.push(journey);
  ++recorded_;
}

double LatencyTracker::stage_quantile(std::uint32_t queue, Stage stage,
                                      double q) const {
  const StageHistograms* h = queue_histograms(queue);
  if (h == nullptr) return 0.0;
  switch (stage) {
    case Stage::kE2e:
      return h->e2e.quantile(q);
    case Stage::kCapture:
      return h->capture.quantile(q);
    case Stage::kQueueWait:
      return h->queue_wait.quantile(q);
    case Stage::kDeliver:
      return h->deliver.quantile(q);
  }
  return 0.0;
}

void LatencyTracker::reset() {
  queues_.clear();
  recorder_.clear();
  recorded_ = 0;
  incomplete_ = 0;
}

}  // namespace wirecap::telemetry
