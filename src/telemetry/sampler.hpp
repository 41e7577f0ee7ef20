// Periodic telemetry sampler (the paper's time-series figures are all
// fixed-interval samples of queue state; Figure 3 is 10 ms bins).
//
// At every virtual-time tick the sampler (1) runs each registered probe
// — components update high-water marks and other poll-only state there
// — and (2) when tracing is enabled, emits one Chrome-trace counter
// event per *gauge* in the registry, so queue depths, pool free-chunk
// counts and core utilization become zoomable time series in Perfetto.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::telemetry {

class Sampler {
 public:
  /// Ticks every `interval` of virtual time once started.
  Sampler(sim::Scheduler& scheduler, Telemetry& telemetry, Nanos interval);

  /// Schedules the first tick one interval from now; from then on the
  /// sampler ticks until the scheduler stops running.  Idempotent.
  void start();

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick();

  sim::Scheduler& scheduler_;
  Telemetry& telemetry_;
  Nanos interval_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  /// Gauge entries cached for counter-event emission; refreshed when the
  /// registry grows (entries are never removed, and std::map nodes are
  /// stable, so the cached pointers stay valid).
  std::size_t seen_registry_size_ = 0;
  std::vector<std::pair<const char*, const MetricRegistry::Entry*>> gauges_;
};

}  // namespace wirecap::telemetry
