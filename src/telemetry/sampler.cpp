#include "telemetry/sampler.hpp"

#include <stdexcept>

namespace wirecap::telemetry {

Sampler::Sampler(sim::Scheduler& scheduler, Telemetry& telemetry,
                 Nanos interval)
    : scheduler_(scheduler), telemetry_(telemetry), interval_(interval) {
  if (interval.count() <= 0) {
    throw std::invalid_argument("Sampler: interval must be positive");
  }
}

void Sampler::start() {
  if (running_) return;
  running_ = true;
  scheduler_.schedule_after(interval_, [this] { tick(); });
}

void Sampler::tick() {
  ++ticks_;
  const Nanos now = scheduler_.now();

  for (const auto& probe : telemetry_.probes) probe(now);

  if (telemetry_.tracer.enabled()) {
    if (telemetry_.registry.size() != seen_registry_size_) {
      gauges_.clear();
      for (const auto& [name, entry] : telemetry_.registry.entries()) {
        if (entry.kind == MetricKind::kGauge) {
          gauges_.emplace_back(name.c_str(), &entry);
        }
      }
      seen_registry_size_ = telemetry_.registry.size();
    }
    for (const auto& [name, entry] : gauges_) {
      telemetry_.tracer.counter(name, now, 0,
                                MetricRegistry::gauge_value(*entry));
    }
  }

  scheduler_.schedule_after(interval_, [this] { tick(); });
}

}  // namespace wirecap::telemetry
