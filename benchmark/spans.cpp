#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace wirecap::benchmark {

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  records_.reserve(capacity_);
}

SpanRecorder::NameId SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  aggregates_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void SpanRecorder::begin_at(NameId name, std::int64_t start_ns) {
  if (name >= names_.size()) {
    throw std::out_of_range("SpanRecorder: name was not interned");
  }
  std::size_t record = kNoRecord;
  if (records_.size() < capacity_) {
    record = records_.size();
    const std::size_t parent =
        stack_.empty() ? kNoRecord : stack_.back().record;
    records_.push_back(Record{name, start_ns, start_ns, parent});
  }
  stack_.push_back(Frame{name, start_ns, 0, false, record});
}

void SpanRecorder::end_at(std::int64_t end_ns, std::uint64_t items) {
  if (stack_.empty()) {
    throw std::logic_error("SpanRecorder: end without an open span");
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - frame.start_ns;
  Aggregate& agg = aggregates_[frame.name];
  ++agg.count;
  agg.items += items;
  agg.total_ns += duration;
  agg.self_ns += duration - frame.child_ns;
  if (!frame.has_child) ++agg.leaves;
  if (frame.record != kNoRecord) {
    records_[frame.record].end_ns = end_ns;
  } else {
    ++dropped_;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    stack_.back().has_child = true;
  }
}

SpanRecorder::Aggregate SpanRecorder::aggregate(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return aggregates_[i];
  }
  return {};
}

std::int64_t SpanRecorder::total_self_ns() const {
  std::int64_t total = 0;
  for (const Aggregate& agg : aggregates_) total += agg.self_ns;
  return total;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i) out << ',';
    // Span names are interned from the benchmark's own string literals
    // (letters, digits, '.', '_'), so they need no JSON escaping.
    out << "{\"name\":\"" << names_[r.name] << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(r.start_ns - origin) / 1e3);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":";
    if (r.parent == kNoRecord) {
      out << "null";
    } else {
      out << r.parent;
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
      << dropped_ << "}}\n";
}

}  // namespace wirecap::benchmark
