// The telemetry context threaded through an experiment: one metrics
// registry, one event tracer, and the probe list the periodic sampler
// drives.  Components receive a Telemetry& in bind_telemetry()-style
// hooks and register their metrics/probes against it; the harness owns
// the instance and the exporters read from it after the run.
#pragma once

#include <functional>
#include <vector>

#include "common/units.hpp"
#include "telemetry/latency.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"

namespace wirecap::telemetry {

/// Harness-facing knobs (apps::ExperimentConfig::telemetry).
struct TelemetryConfig {
  /// Runtime gate for event tracing (the compile-time gate is
  /// WIRECAP_TRACING_COMPILED_IN).
  bool trace = false;
  std::size_t trace_capacity = EventTracer::kDefaultCapacity;
  /// Virtual-time period of the gauge sampler; zero disables it (the
  /// default, so unrelated experiments schedule no extra events).
  Nanos sample_interval = Nanos::zero();
  /// Runtime gate for chunk-journey latency tracking (stage histograms
  /// + flight recorder).  Off by default: the hot path then pays one
  /// predicted branch per stamp site.
  bool latency = false;
  /// End-to-end latency at which a journey is retained by the flight
  /// recorder as an outlier.
  Nanos latency_outlier_threshold = Nanos::from_millis(1);
};

struct Telemetry {
  MetricRegistry registry;
  EventTracer tracer;
  /// Chunk-journey latency aggregation (per-stage histograms, flight
  /// recorder).  Disabled until the harness enables it.
  LatencyTracker latency;
  /// Invoked by the Sampler at every tick with the current virtual
  /// time.  Components use probes for state only visible by polling
  /// (high-water marks); instantaneous values should be bound gauges,
  /// which the sampler already turns into trace counter series.
  std::vector<std::function<void(Nanos)>> probes;
};

}  // namespace wirecap::telemetry
