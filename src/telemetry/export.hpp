// Machine-readable exporters for the telemetry layer.
//
// All serializers are deterministic: metrics are emitted in registry
// (name-sorted) order, trace events in recording order, and doubles are
// formatted with a fixed locale-independent format — two identical
// virtual-time runs produce byte-identical files, which is what the
// bench-trajectory tracking (BENCH_*.json) and the golden-file tests
// rely on.
#pragma once

#include <string>

#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"

namespace wirecap::telemetry {

/// JSON snapshot of every metric in the registry:
///   {"schema":"wirecap.metrics.v1","metrics":[{"name":...,"kind":...},..]}
[[nodiscard]] std::string metrics_to_json(const MetricRegistry& registry);

/// Flat CSV (name,kind,count,value,p50,p90,p99,min,max,mean) with empty
/// fields where a column does not apply to the metric kind.  No kind
/// fills p50/p90/p99/min today; the header keeps them so existing
/// readers of the file see the same columns.
[[nodiscard]] std::string metrics_to_csv(const MetricRegistry& registry);

/// Chrome-trace JSON ({"traceEvents":[...]}) of the retained events —
/// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
/// Timestamps are virtual-time microseconds.
[[nodiscard]] std::string trace_to_chrome_json(const EventTracer& tracer);

/// Writes `content` to `path` (single fwrite).  Returns false and logs
/// a warning on I/O failure.
bool write_file(const std::string& path, const std::string& content);

/// Writes metrics_to_json, or metrics_to_csv when `path` ends in ".csv".
bool write_metrics(const MetricRegistry& registry, const std::string& path);

/// Writes trace_to_chrome_json to `path`.
bool write_trace(const EventTracer& tracer, const std::string& path);

}  // namespace wirecap::telemetry
