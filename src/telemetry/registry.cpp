#include "telemetry/registry.hpp"

#include <cctype>
#include <stdexcept>

namespace wirecap::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kSeries: return "series";
  }
  return "?";
}

MetricRegistry::Entry& MetricRegistry::get_or_create(const std::string& name,
                                                     MetricKind kind) {
  if (name.empty()) {
    throw std::invalid_argument("MetricRegistry: empty metric name");
  }
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricRegistry: metric '" + name +
                           "' already registered as " +
                           to_string(it->second.kind) + ", requested as " +
                           to_string(kind));
  }
  return it->second;
}

MetricRegistry::Counter MetricRegistry::counter(const std::string& name) {
  Entry& entry = get_or_create(name, MetricKind::kCounter);
  if (!entry.counter) {
    if (entry.counter_fn) {
      throw std::logic_error("MetricRegistry: counter '" + name +
                             "' is bound to a callback");
    }
    entry.counter = std::make_shared<std::uint64_t>(0);
  }
  return Counter{entry.counter};
}

void MetricRegistry::bind_counter(const std::string& name,
                                  std::function<std::uint64_t()> fn) {
  Entry& entry = get_or_create(name, MetricKind::kCounter);
  if (entry.counter) {
    throw std::logic_error("MetricRegistry: counter '" + name +
                           "' already owned by a handle");
  }
  entry.counter_fn = std::move(fn);
}

void MetricRegistry::bind_gauge(const std::string& name,
                                std::function<double()> fn) {
  get_or_create(name, MetricKind::kGauge).gauge_fn = std::move(fn);
}

void MetricRegistry::bind_series(const std::string& name,
                                 const BinnedSeries* view) {
  get_or_create(name, MetricKind::kSeries).series_view = view;
}

std::uint64_t MetricRegistry::counter_value(const Entry& entry) {
  if (entry.counter) return *entry.counter;
  if (entry.counter_fn) return entry.counter_fn();
  return 0;
}

double MetricRegistry::gauge_value(const Entry& entry) {
  return entry.gauge_fn ? entry.gauge_fn() : 0.0;
}

std::string MetricRegistry::sanitize_component(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc)
                      ? static_cast<char>(std::tolower(uc))
                      : '_');
  }
  return out;
}

}  // namespace wirecap::telemetry
