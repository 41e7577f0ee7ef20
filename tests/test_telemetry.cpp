// Unit tests for src/telemetry: registry semantics, tracer ring
// behaviour, exporter determinism and validity, sampler wiring, and the
// harness integration (one metrics tree per experiment).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <algorithm>
#include <cmath>

#include "apps/harness.hpp"
#include "apps/pkt_handler.hpp"
#include "common/stats.hpp"
#include "core/wirecap_engine.hpp"
#include "engines/baselines.hpp"
#include "nic/wire.hpp"
#include "telemetry/export.hpp"
#include "telemetry/latency.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracer.hpp"
#include "trace/border_router.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap {
namespace {

using telemetry::EventTracer;
using telemetry::MetricRegistry;
using telemetry::TraceEvent;
using telemetry::TracePhase;

// --- a minimal recursive-descent JSON validator (syntax only) ---

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  [[nodiscard]] bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return eat('"');
  }
  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  [[nodiscard]] bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        skip_ws();
        if (eat('}')) return true;
        while (true) {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (!eat(':')) return false;
          if (!value()) return false;
          skip_ws();
          if (eat('}')) return true;
          if (!eat(',')) return false;
        }
      }
      case '[': {
        ++pos_;
        skip_ws();
        if (eat(']')) return true;
        while (true) {
          if (!value()) return false;
          skip_ws();
          if (eat(']')) return true;
          if (!eat(',')) return false;
        }
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// --- registry ---

TEST(MetricRegistry, OwnedGetOrCreateSharesTheCell) {
  MetricRegistry registry;
  auto a = registry.counter("engine.q0.delivered");
  auto b = registry.counter("engine.q0.delivered");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricRegistry, KindCollisionThrows) {
  MetricRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.bind_gauge("x", [] { return 0.0; }),
               std::logic_error);
  EXPECT_THROW(registry.bind_series("x", nullptr), std::logic_error);
  EXPECT_THROW(registry.bind_counter("x", [] { return 1u; }),
               std::logic_error);  // owned by a handle
  // Same name + same kind is fine (bound source replaced).
  registry.bind_counter("y", [] { return 1u; });
  registry.bind_counter("y", [] { return 2u; });
  EXPECT_EQ(MetricRegistry::counter_value(registry.entries().at("y")), 2u);
}

TEST(MetricRegistry, EmptyNameThrows) {
  MetricRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
}

TEST(MetricRegistry, SanitizeComponent) {
  EXPECT_EQ(MetricRegistry::sanitize_component("WireCAP-A"), "wirecap_a");
  EXPECT_EQ(MetricRegistry::sanitize_component("DPDK+app-offload"),
            "dpdk_app_offload");
}

TEST(MetricRegistry, EntriesIterateSorted) {
  MetricRegistry registry;
  registry.counter("b");
  registry.counter("a");
  registry.counter("c");
  std::vector<std::string> names;
  for (const auto& [name, entry] : registry.entries()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

// --- tracer ---

TEST(EventTracer, DisabledRecordsNothing) {
  EventTracer tracer{8};
  tracer.instant("e", "t", Nanos{1}, 0);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  telemetry::EventTracer* null_tracer = nullptr;
  WIRECAP_TRACE(null_tracer, instant("e", "t", Nanos{1}, 0));  // must not crash
}

TEST(EventTracer, RingWrapKeepsMostRecent) {
  EventTracer tracer{4};
  tracer.set_enabled(true);
  for (std::int64_t i = 0; i < 20; ++i) {
    tracer.instant("e", "t", Nanos{i}, 0);
  }
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 16u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Chronological, oldest first: the last four recorded.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts_ns, static_cast<std::int64_t>(16 + i));
  }
}

TEST(EventTracer, SetCapacityClearsAndZeroThrows) {
  EventTracer tracer{4};
  tracer.set_enabled(true);
  tracer.instant("e", "t", Nanos{1}, 0);
  tracer.set_capacity(8);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_THROW(tracer.set_capacity(0), std::invalid_argument);
}

// --- HDR histogram ---

TEST(HdrHistogram, SmallValuesLandInExactBuckets) {
  telemetry::HdrHistogram hist;
  for (std::int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(telemetry::HdrHistogram::index_of(static_cast<std::uint64_t>(v)),
              static_cast<std::size_t>(v));
    hist.record(v);
  }
  EXPECT_EQ(hist.count(), 32u);
  EXPECT_EQ(hist.max_value(), 31u);
  // Below 32 every bucket is width 1, so quantiles are exact (up to the
  // in-bucket interpolation, which stays inside the 1-wide bucket).
  EXPECT_NEAR(hist.quantile(0.5), 16.0, 1.0);
  EXPECT_NEAR(hist.quantile(1.0), 31.0, 1.0);
  // Negative samples clamp to zero instead of indexing garbage.
  hist.record(-5);
  EXPECT_EQ(hist.count(), 33u);
}

TEST(HdrHistogram, BucketGeometryBoundsRelativeError) {
  // Every bucket above the exact range spans at most 1/32 of its floor:
  // that is the structural error bound the quantile test leans on.
  for (const std::uint64_t v :
       {32ull, 33ull, 100ull, 1023ull, 1024ull, 123'456'789ull,
        (1ull << 40) + 12345ull}) {
    const std::size_t index = telemetry::HdrHistogram::index_of(v);
    const std::uint64_t floor = telemetry::HdrHistogram::bucket_floor(index);
    const std::uint64_t width = telemetry::HdrHistogram::bucket_width(index);
    EXPECT_LE(floor, v);
    EXPECT_LT(v, floor + width) << v;
    EXPECT_LE(width, std::max<std::uint64_t>(1, floor / 16)) << v;
  }
}

TEST(HdrHistogram, QuantilesTrackExact) {
  // One stream, two consumers: an exact sorted reference and the HDR
  // histogram, which must land within one sub-bucket of the exact value.
  Xoshiro256 rng{0xD15C0};
  telemetry::HdrHistogram hdr;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    // Span several octaves, as real latencies do.
    const std::uint64_t v = 1000 + rng.next_below(1u << 20);
    values.push_back(v);
    hdr.record(static_cast<std::int64_t>(v));
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(
        values[static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1))]);
    const double hdr_q = hdr.quantile(q);
    // Within one sub-bucket (~1/16 of the value) plus interpolation slop.
    EXPECT_NEAR(hdr_q, exact, exact / 8.0 + 2.0) << "q=" << q;
  }
}

TEST(HdrHistogram, MergeMatchesSinglePassAndResetClears) {
  Xoshiro256 rng{0xACC};
  telemetry::HdrHistogram whole;
  telemetry::HdrHistogram first;
  telemetry::HdrHistogram second;
  for (int i = 0; i < 5'000; ++i) {
    const std::int64_t v = static_cast<std::int64_t>(rng.next_below(1u << 24));
    whole.record(v);
    (i % 2 == 0 ? first : second).record(v);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), whole.count());
  EXPECT_EQ(first.max_value(), whole.max_value());
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(first.quantile(q), whole.quantile(q)) << "q=" << q;
  }
  first.reset();
  EXPECT_EQ(first.count(), 0u);
  EXPECT_EQ(first.max_value(), 0u);
  EXPECT_EQ(first.quantile(0.5), 0.0);
}

// --- flight recorder ---

telemetry::ChunkJourney make_journey(std::int64_t arrival,
                                     std::int64_t e2e,
                                     std::uint32_t chunk) {
  telemetry::ChunkJourney j;
  j.ring = 1;
  j.chunk = chunk;
  j.pkt_count = 8;
  j.arrival_ns = arrival;
  j.captured_ns = arrival + e2e / 4;
  j.enqueued_ns = arrival + e2e / 4;
  j.dequeued_ns = arrival + e2e / 2;
  j.released_ns = arrival + e2e;
  return j;
}

TEST(FlightRecorder, RetainsOutliersAboveThreshold) {
  telemetry::FlightRecorder recorder{4};
  recorder.set_threshold(Nanos::from_micros(10));
  for (std::uint32_t i = 0; i < 8; ++i) {
    recorder.push(make_journey(1000 * i, 1000, i));  // 1 us: under
  }
  EXPECT_EQ(recorder.outliers_seen(), 0u);
  // The ring only keeps the last 4.
  const auto recent = recorder.recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().chunk, 4u);
  EXPECT_EQ(recent.back().chunk, 7u);

  recorder.push(make_journey(9000, 50'000, 99));  // 50 us: outlier
  EXPECT_EQ(recorder.outliers_seen(), 1u);
  ASSERT_EQ(recorder.outliers().size(), 1u);
  EXPECT_EQ(recorder.outliers()[0].chunk, 99u);
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("chunk=99"), std::string::npos) << dump;
  EXPECT_NE(dump.find("queue_wait"), std::string::npos) << dump;
  recorder.clear();
  EXPECT_TRUE(recorder.recent().empty());
  EXPECT_TRUE(recorder.outliers().empty());
}

TEST(LatencyTracker, DiscardsIncompleteJourneys) {
  telemetry::LatencyTracker tracker;
  tracker.set_enabled(true);
  telemetry::ChunkJourney partial;
  partial.arrival_ns = 100;
  partial.captured_ns = 200;  // never enqueued/dequeued/released
  tracker.record_journey(partial);
  EXPECT_EQ(tracker.journeys_recorded(), 0u);
  EXPECT_EQ(tracker.journeys_incomplete(), 1u);
  tracker.record_journey(make_journey(100, 4000, 7));
  EXPECT_EQ(tracker.journeys_recorded(), 1u);
  using Stage = telemetry::LatencyTracker::Stage;
  EXPECT_GT(tracker.stage_quantile(1, Stage::kE2e, 0.5), 0.0);
  // Unknown queues read zero instead of faulting.
  EXPECT_EQ(tracker.stage_quantile(42, Stage::kE2e, 0.5), 0.0);
}

// --- exporters ---

TEST(Export, MetricsJsonIsValidAndCsvHasHeader) {
  telemetry::Telemetry tel;
  tel.registry.counter("a.count").add(7);
  tel.registry.bind_gauge("b.depth", [] { return 2.5; });
  BinnedSeries series{Nanos::from_millis(10)};
  series.record(Nanos::from_millis(5), 3);
  tel.registry.bind_series("e.series", &series);
  tel.registry.bind_series("f.unbound", nullptr);

  const std::string json = telemetry::metrics_to_json(tel.registry);
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"wirecap.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);

  const std::string csv = telemetry::metrics_to_csv(tel.registry);
  EXPECT_EQ(csv.rfind("name,kind,count,value,p50,p90,p99,min,max,mean\n", 0),
            0u);
}

TEST(Export, TraceJsonIsValidChromeTrace) {
  EventTracer tracer{16};
  tracer.set_enabled(true);
  tracer.instant("chunk.offload", "engine", Nanos{1000}, 2, "to_queue", 3);
  tracer.complete("capture.poll", "engine", Nanos{2000}, Nanos{500}, 0,
                  "chunks", 2, "copied_pkts", 0);
  tracer.counter("pool.free", Nanos{3000}, 0, 97.5);
  const std::string json = telemetry::trace_to_chrome_json(tracer);
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Export, HostileMetricNamesStayValidJson) {
  telemetry::Telemetry tel;
  tel.registry.counter("evil\"quote").add(1);
  tel.registry.counter("back\\slash").add(2);
  tel.registry.counter(std::string{"ctrl\x01\r\b\f"} + "tail").add(3);
  const std::string json = telemetry::metrics_to_json(tel.registry);
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("evil\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\b"), std::string::npos);
  EXPECT_NE(json.find("\\f"), std::string::npos);
  // No raw control byte may survive into the document.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(Export, HostileMetricNamesCannotSmuggleCsvColumns) {
  telemetry::Telemetry tel;
  tel.registry.counter("comma,name").add(1);
  tel.registry.counter("quote\"name").add(2);
  tel.registry.counter("plain.name").add(3);
  const std::string csv = telemetry::metrics_to_csv(tel.registry);
  // RFC 4180: the hostile fields come out quoted, inner quotes doubled.
  EXPECT_NE(csv.find("\"comma,name\",counter"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"quote\"\"name\",counter"), std::string::npos) << csv;
  EXPECT_NE(csv.find("plain.name,counter"), std::string::npos) << csv;
  // Every row still has exactly 10 columns: count separators outside
  // quoted fields.
  std::size_t line_start = 0;
  std::size_t rows = 0;
  bool in_quotes = false;
  std::size_t commas = 0;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    if (csv[i] == '"') {
      in_quotes = !in_quotes;
    } else if (csv[i] == ',' && !in_quotes) {
      ++commas;
    } else if (csv[i] == '\n' && !in_quotes) {
      EXPECT_EQ(commas, 9u) << csv.substr(line_start, i - line_start);
      commas = 0;
      line_start = i + 1;
      ++rows;
    }
  }
  EXPECT_EQ(rows, 4u);  // header + three metrics
}

TEST(Export, HostileTraceNamesStayValidJson) {
  EventTracer tracer{8};
  tracer.set_enabled(true);
  tracer.instant("bad\"name\n", "cat\\egory", Nanos{100}, 0, "arg\"0", 7);
  const std::string json = telemetry::trace_to_chrome_json(tracer);
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("bad\\\"name\\n"), std::string::npos);
}

// --- sampler ---

TEST(Sampler, TicksRunProbesAndEmitGaugeCounters) {
  sim::Scheduler scheduler;
  telemetry::Telemetry tel;
  tel.tracer.set_enabled(true);
  double depth = 1.0;
  tel.registry.bind_gauge("q.depth", [&depth] { return depth; });
  std::uint64_t probe_calls = 0;
  tel.probes.push_back([&probe_calls](Nanos) { ++probe_calls; });

  telemetry::Sampler sampler{scheduler, tel, Nanos::from_millis(1)};
  sampler.start();
  scheduler.run_until(Nanos::from_millis(10.5));
  EXPECT_EQ(sampler.ticks(), 10u);
  EXPECT_EQ(probe_calls, 10u);
  // One counter trace event per gauge per tick.
  std::size_t counters = 0;
  for (const auto& event : tel.tracer.events()) {
    if (event.phase == TracePhase::kCounter) ++counters;
  }
  EXPECT_EQ(counters, 10u);
  EXPECT_THROW((telemetry::Sampler{scheduler, tel, Nanos::zero()}),
               std::invalid_argument);
}

// --- harness integration: one tree, deterministic snapshots ---

struct SmallRun {
  std::string metrics_json;
  std::string trace_json;
  apps::ExperimentResult result;
};

SmallRun small_wirecap_run() {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 40;
  config.num_queues = 2;
  config.x = 0;
  config.telemetry.trace = true;
  config.telemetry.trace_capacity = 1u << 14;
  config.telemetry.sample_interval = Nanos::from_millis(1);
  apps::Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 50'000;
  Xoshiro256 rng{0xFEED};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 2),
                        trace::flow_for_queue(rng, 1, 2)};
  trace::ConstantRateSource source{trace_config};
  const Nanos horizon = Nanos::from_seconds(
      50'000.0 / source.rate().per_second() + 0.5);
  SmallRun run;
  run.result = experiment.run(source, horizon);
  run.metrics_json = telemetry::metrics_to_json(experiment.telemetry().registry);
  run.trace_json = telemetry::trace_to_chrome_json(experiment.telemetry().tracer);
  return run;
}

TEST(Harness, MetricsTreeCoversEngineNicCoreAndApp) {
  const SmallRun run = small_wirecap_run();
  for (const char* name :
       {"engine.wirecap_a.q0.delivered", "engine.wirecap_a.q1.delivered",
        "engine.wirecap_a.q0.delivery_dropped",
        "engine.wirecap_a.q0.chunks_offloaded_out",
        "engine.wirecap_a.q0.chunks_offloaded_in",
        "engine.wirecap_a.q0.pool.free_chunks",
        "engine.wirecap_a.q0.capture_queue.depth",
        "engine.wirecap_a.q0.capture_queue.high_water",
        "engine.wirecap_a.q0.driver.chunks_captured", "nic.q0.rx_received",
        "nic.total_rx_dropped", "core.q0.app_core.utilization",
        "app.q0.processed"}) {
    EXPECT_NE(run.metrics_json.find(std::string{"\""} + name + "\""),
              std::string::npos)
        << "missing metric: " << name;
  }
  EXPECT_TRUE(JsonChecker{run.metrics_json}.valid());
  EXPECT_TRUE(JsonChecker{run.trace_json}.valid());
  // The capture stack leaves events in the trace.
  EXPECT_NE(run.trace_json.find("chunk.capture"), std::string::npos);
  EXPECT_NE(run.trace_json.find("chunk.dequeue"), std::string::npos);
  EXPECT_GT(run.result.delivered, 0u);
}

TEST(Harness, SnapshotsAreByteIdenticalAcrossIdenticalRuns) {
  const SmallRun a = small_wirecap_run();
  const SmallRun b = small_wirecap_run();
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(Harness, LatencyGaugesPublishJourneyPercentiles) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 40;
  config.num_queues = 2;
  config.telemetry.trace = true;
  // Room for the full run: the 32 extra latency gauges produce sampler
  // counter events that would wrap a 2^14 ring during the drain tail.
  config.telemetry.trace_capacity = 1u << 16;
  config.telemetry.sample_interval = Nanos::from_millis(1);
  config.telemetry.latency = true;
  apps::Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 50'000;
  Xoshiro256 rng{0xFEED};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 2),
                        trace::flow_for_queue(rng, 1, 2)};
  trace::ConstantRateSource source{trace_config};
  const Nanos horizon = Nanos::from_seconds(
      50'000.0 / source.rate().per_second() + 0.5);
  const apps::ExperimentResult result = experiment.run(source, horizon);
  EXPECT_GT(result.delivered, 0u);

  const auto& latency = experiment.telemetry().latency;
  EXPECT_GT(latency.journeys_recorded(), 0u);
  using Stage = telemetry::LatencyTracker::Stage;
  for (const Stage stage :
       {Stage::kE2e, Stage::kCapture, Stage::kQueueWait, Stage::kDeliver}) {
    EXPECT_LE(latency.stage_quantile(0, stage, 0.5),
              latency.stage_quantile(0, stage, 0.999));
  }
  EXPECT_GT(latency.stage_quantile(0, Stage::kE2e, 0.5), 0.0);

  // Every stage x quantile gauge is published, per queue, and the
  // sampled snapshot carries real values.
  const std::string metrics =
      telemetry::metrics_to_json(experiment.telemetry().registry);
  for (const char* queue : {"q0", "q1"}) {
    for (const char* stage : {"e2e", "capture", "queue_wait", "deliver"}) {
      for (const char* quantile : {"p50", "p90", "p99", "p999"}) {
        const std::string name = std::string{"engine.wirecap_a."} + queue +
                                 ".latency." + stage + "." + quantile;
        EXPECT_NE(metrics.find("\"" + name + "\""), std::string::npos)
            << "missing gauge: " << name;
      }
    }
  }
  const auto& entries = experiment.telemetry().registry.entries();
  EXPECT_GT(MetricRegistry::gauge_value(
                entries.at("engine.wirecap_a.q0.latency.e2e.p50")),
            0.0);

  // Completed journeys land in the trace as Chrome-trace complete spans.
  const std::string trace =
      telemetry::trace_to_chrome_json(experiment.telemetry().tracer);
  EXPECT_NE(trace.find("chunk.journey"), std::string::npos);
}

TEST(Harness, LatencyGaugesAbsentWhenDisabled) {
  const SmallRun run = small_wirecap_run();
  EXPECT_EQ(run.metrics_json.find(".latency."), std::string::npos);
}

// --- queue close/reopen: gauges must tombstone, not go stale ---

TEST(EngineTelemetry, ClosedQueueGaugesReadZeroUntilReopen) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 1;
  nic_config.rx_ring_size = 32;  // R must exceed ring_size / M
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = 8;
  engine_config.chunk_count = 12;
  const sim::CostModel costs;
  core::WirecapEngine engine{scheduler, nic, engine_config, costs};
  telemetry::Telemetry tel;
  engine.bind_telemetry(tel, "eng", 1);
  sim::SimCore core{scheduler, 0};
  engine.open(0, core);

  const auto gauge = [&tel](const char* name) {
    return MetricRegistry::gauge_value(tel.registry.entries().at(name));
  };
  EXPECT_GT(gauge("eng.q0.pool.free_chunks"), 0.0);

  // A closed queue's driver object stays alive (held for the epoch
  // check); its gauges must read 0 instead of the dead pool's state.
  engine.close(0);
  EXPECT_EQ(gauge("eng.q0.pool.free_chunks"), 0.0);
  EXPECT_EQ(gauge("eng.q0.capture_queue.depth"), 0.0);
  EXPECT_EQ(gauge("eng.q0.pending.depth"), 0.0);
  EXPECT_EQ(gauge("eng.q0.capture_core.utilization"), 0.0);

  // Reopen rebinds against the fresh driver: liveness returns.
  engine.open(0, core);
  EXPECT_GT(gauge("eng.q0.pool.free_chunks"), 0.0);
}

// --- golden file: a small fig03-style run through the file writers ---

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string content;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

TEST(GoldenFile, Fig03StyleRunWritesValidChromeTrace) {
  // A shrunken Figure-3 wiring: border trace into 2 queues, DNA engine,
  // queue profilers, tracer + sampler on.
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 2;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  engines::Type2Engine dna{nic, engines::dna_config()};

  const sim::CostModel costs;
  std::vector<std::unique_ptr<sim::SimCore>> cores;
  std::vector<std::unique_ptr<apps::QueueProfiler>> profilers;
  for (std::uint32_t q = 0; q < 2; ++q) {
    cores.push_back(std::make_unique<sim::SimCore>(scheduler, q));
    profilers.push_back(
        std::make_unique<apps::QueueProfiler>(*cores[q], dna, q, costs));
  }

  telemetry::Telemetry tel;
  tel.tracer.set_enabled(true);
  dna.bind_telemetry(tel, "engine.dna", 2);
  tel.registry.bind_series("app.q0.arrivals_per_10ms",
                           &profilers[0]->series());
  telemetry::Sampler sampler{scheduler, tel, Nanos::from_millis(10)};
  sampler.start();

  trace::BorderRouterConfig trace_config;
  trace_config.duration_s = 0.25;
  trace_config.num_queues = 2;
  trace_config.hot_queue = 0;
  trace_config.bursty_queue = 1;
  auto source = trace::make_border_router_source(trace_config);
  nic::TrafficInjector injector{scheduler, *source, nic};
  injector.start();
  scheduler.run_until(Nanos::from_seconds(0.5));

  const std::string metrics_path = "test_telemetry_metrics.golden.json";
  const std::string trace_path = "test_telemetry_trace.golden.json";
  ASSERT_TRUE(telemetry::write_metrics(tel.registry, metrics_path));
  ASSERT_TRUE(telemetry::write_trace(tel.tracer, trace_path));

  // The files round-trip exactly and parse as JSON.
  EXPECT_EQ(read_file(metrics_path),
            telemetry::metrics_to_json(tel.registry));
  const std::string trace_json = read_file(trace_path);
  EXPECT_EQ(trace_json, telemetry::trace_to_chrome_json(tel.tracer));
  EXPECT_TRUE(JsonChecker{trace_json}.valid());
  EXPECT_NE(trace_json.find("\"displayTimeUnit\""), std::string::npos);
  // The sampler turned the engine gauges into counter series.
  EXPECT_NE(trace_json.find("engine.dna.q0.released.pending"),
            std::string::npos);
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Export, CsvPathSelectsCsv) {
  telemetry::Telemetry tel;
  tel.registry.counter("a").add(1);
  const std::string path = "test_telemetry_metrics.golden.csv";
  ASSERT_TRUE(telemetry::write_metrics(tel.registry, path));
  const std::string content = read_file(path);
  EXPECT_EQ(content.rfind("name,kind,", 0), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wirecap
