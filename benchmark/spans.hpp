// Span recording for the benchmark's traced pass.
//
// A span is one timed call into a layer: a name, a start, an end and the
// span that was open when it began (its parent).  Per-name aggregates are
// exact however many spans a run records; the first `capacity` spans are
// also kept individually so they can be written as a Chrome trace.
//
// A layer's self time is its span's duration minus the time its child
// spans cover.  Spans must nest (end() closes the innermost open span),
// which holds for the benchmark because every span wraps one synchronous
// call on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wirecap::benchmark {

class SpanRecorder {
 public:
  using NameId = std::uint32_t;
  static constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);

  /// Per-name totals.  `items` is whatever unit the call site counts
  /// (packets, usually), so self_ns / items is a per-packet cost.
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    /// Spans of this name that had no child span.
    std::uint64_t leaves = 0;
  };

  /// One buffered span; `parent` indexes records(), kNoRecord for a root
  /// or for a parent that did not fit in the buffer.
  struct Record {
    NameId name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNoRecord;
  };

  explicit SpanRecorder(std::size_t capacity = 1u << 16);

  /// Returns the id of `name`, registering it on first use.
  NameId intern(std::string_view name);

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span at `start_ns`.
  void begin_at(NameId name, std::int64_t start_ns);
  /// Closes the innermost open span at `end_ns`, crediting `items`.
  void end_at(std::int64_t end_ns, std::uint64_t items = 1);

  void begin(NameId name) { begin_at(name, now_ns()); }
  void end(std::uint64_t items = 1) { end_at(now_ns(), items); }

  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  [[nodiscard]] const Aggregate& aggregate(NameId name) const {
    return aggregates_.at(name);
  }
  /// Aggregate for `name`, or an empty one when it was never interned.
  [[nodiscard]] Aggregate aggregate(std::string_view name) const;
  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }
  /// Spans that closed after the buffer was full (aggregated only).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Sum of the self time of every closed span: the wall time the spans
  /// account for.
  [[nodiscard]] std::int64_t total_self_ns() const;

  /// Writes the buffered spans as Chrome trace-event JSON ("X" events,
  /// microseconds relative to the first buffered span).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Frame {
    NameId name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    bool has_child;
    std::size_t record;
  };

  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<Aggregate> aggregates_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
};

/// Scoped span: begins on construction, ends on destruction.  A null
/// recorder makes it a no-op, so one code path serves traced and
/// untraced runs.
class Span {
 public:
  Span(SpanRecorder* recorder, SpanRecorder::NameId name)
      : recorder_(recorder) {
    if (recorder_) recorder_->begin(name);
  }
  ~Span() {
    if (recorder_) recorder_->end(items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t items_ = 1;
};

}  // namespace wirecap::benchmark
