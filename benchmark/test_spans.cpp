// Span accounting checks for the benchmark's SpanRecorder: self time
// with nested and back-to-back children, zero-length spans, exact
// aggregates after the bounded buffer overflows, and a Chrome-trace
// export that parses as JSON.  Explicit timestamps keep every expected
// value exact.
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "spans.hpp"

namespace {

using wirecap::benchmark::SpanRecorder;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

/// Minimal recursive-descent JSON validator (RFC 8259 grammar).
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    try {
      ws();
      value();
      ws();
      return i_ == s_.size();
    } catch (const std::runtime_error&) {
      return false;
    }
  }

 private:
  [[noreturn]] static void fail() { throw std::runtime_error("bad json"); }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail();
    ++i_;
  }
  void ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  void literal(const char* word) {
    for (const char* p = word; *p; ++p) expect(*p);
  }
  void value() {
    switch (peek()) {
      case '{': object(); break;
      case '[': array(); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number();
    }
  }
  void object() {
    expect('{');
    ws();
    if (peek() == '}') {
      ++i_;
      return;
    }
    for (;;) {
      ws();
      string();
      ws();
      expect(':');
      ws();
      value();
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    for (;;) {
      ws();
      value();
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return;
    }
  }
  void string() {
    expect('"');
    while (peek() != '"') {
      if (i_ >= s_.size() || static_cast<unsigned char>(peek()) < 0x20) fail();
      if (peek() == '\\') ++i_;
      ++i_;
    }
    ++i_;
  }
  void number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail();
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (peek() == '.') {
      ++i_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail();
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail();
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (i_ == start) fail();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

void nested_and_back_to_back_children() {
  SpanRecorder rec;
  const auto parent = rec.intern("parent");
  const auto child = rec.intern("child");
  const auto leaf = rec.intern("leaf");
  rec.begin_at(parent, 0);
  rec.begin_at(child, 10);  // first child [10, 30)
  rec.end_at(30);
  rec.begin_at(child, 30);  // back-to-back second child [30, 60)
  rec.begin_at(leaf, 35);   // grandchild [35, 45)
  rec.end_at(45, 7);
  rec.end_at(60);
  rec.end_at(100);

  CHECK(rec.depth() == 0);
  CHECK(rec.aggregate(parent).count == 1);
  CHECK(rec.aggregate(parent).total_ns == 100);
  CHECK(rec.aggregate(parent).self_ns == 50);  // 100 - 20 - 30
  CHECK(rec.aggregate(child).count == 2);
  CHECK(rec.aggregate(child).total_ns == 50);
  CHECK(rec.aggregate(child).self_ns == 40);  // 20 + (30 - 10)
  CHECK(rec.aggregate(leaf).self_ns == 10);
  CHECK(rec.aggregate(leaf).items == 7);
  CHECK(rec.aggregate(parent).leaves == 0);
  CHECK(rec.aggregate(child).leaves == 1);  // only the first child
  CHECK(rec.aggregate(leaf).leaves == 1);
  // Self times tile the root span exactly.
  CHECK(rec.total_self_ns() == 100);
  // Parent links of the buffered records.
  CHECK(rec.records().size() == 4);
  CHECK(rec.records()[0].parent == SpanRecorder::kNoRecord);
  CHECK(rec.records()[1].parent == 0);
  CHECK(rec.records()[2].parent == 0);
  CHECK(rec.records()[3].parent == 2);
  CHECK(rec.aggregate("parent").self_ns == 50);
  CHECK(rec.aggregate("never-interned").count == 0);
}

void zero_length_spans() {
  SpanRecorder rec;
  const auto outer = rec.intern("outer");
  const auto zero = rec.intern("zero");
  rec.begin_at(outer, 100);
  rec.begin_at(zero, 150);
  rec.end_at(150);
  rec.begin_at(zero, 150);
  rec.end_at(150);
  rec.end_at(200);
  CHECK(rec.aggregate(zero).count == 2);
  CHECK(rec.aggregate(zero).total_ns == 0);
  CHECK(rec.aggregate(zero).self_ns == 0);
  CHECK(rec.aggregate(zero).leaves == 2);
  CHECK(rec.aggregate(outer).self_ns == 100);
  // A zero-length child still makes its parent a non-leaf.
  CHECK(rec.aggregate(outer).leaves == 0);
  CHECK(rec.total_self_ns() == 100);
}

void aggregates_exact_after_overflow() {
  SpanRecorder rec(4);
  const auto root = rec.intern("root");
  const auto work = rec.intern("work");
  std::int64_t t = 0;
  rec.begin_at(root, t);
  for (int i = 0; i < 1000; ++i) {
    rec.begin_at(work, t);
    t += 3;
    rec.end_at(t, 2);
    t += 1;  // a gap: root self time
  }
  rec.end_at(t);
  CHECK(rec.records().size() == 4);
  CHECK(rec.dropped() == 997);  // 1001 spans, 4 buffered
  CHECK(rec.aggregate(work).count == 1000);
  CHECK(rec.aggregate(work).items == 2000);
  CHECK(rec.aggregate(work).total_ns == 3000);
  CHECK(rec.aggregate(work).self_ns == 3000);
  CHECK(rec.aggregate(root).total_ns == 4000);
  CHECK(rec.aggregate(root).self_ns == 1000);
  CHECK(rec.total_self_ns() == 4000);
  // The buffered root span still gets its end time.
  CHECK(rec.records()[0].end_ns == 4000);
}

void chrome_trace_is_json() {
  SpanRecorder rec(3);
  const auto a = rec.intern("sim.step");
  const auto b = rec.intern("core.try_next_batch");
  rec.begin_at(a, 1'000);
  rec.begin_at(b, 1'250);
  rec.end_at(1'900);
  rec.end_at(2'000);
  rec.begin_at(a, 2'000);
  rec.end_at(2'500);
  rec.begin_at(a, 2'500);  // overflows the buffer
  rec.end_at(2'600);
  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string text = out.str();
  CHECK(JsonValidator(text).valid());
  std::size_t events = 0;
  for (std::size_t pos = text.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = text.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  CHECK(events == 3);
  CHECK(text.find("\"dropped_spans\":1") != std::string::npos);
  CHECK(text.find("\"ts\":0.250") != std::string::npos);

  SpanRecorder empty;
  std::ostringstream empty_out;
  empty.write_chrome_trace(empty_out);
  CHECK(JsonValidator(empty_out.str()).valid());
  // The validator itself rejects malformed text.
  CHECK(!JsonValidator("{\"a\":[1,2,}").valid());
  CHECK(!JsonValidator("{\"a\":1} x").valid());
}

void misuse_is_reported() {
  SpanRecorder rec;
  bool threw = false;
  try {
    rec.end_at(1);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    rec.begin_at(42, 0);
  } catch (const std::out_of_range&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  nested_and_back_to_back_children();
  zero_length_spans();
  aggregates_exact_after_overflow();
  chrome_trace_is_json();
  misuse_is_reported();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("test_spans: all checks passed\n");
  return 0;
}
