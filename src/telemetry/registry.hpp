// The metrics registry — one tree for every counter, gauge and series
// the reproduction collects (ROADMAP: unified telemetry).
//
// Metrics live under hierarchical dotted names ("engine.wirecap_a.q3.
// delivered"); the registry keeps them in a sorted map so snapshots and
// exports are deterministic.  Two flavours coexist:
//
//   * owned counters — the registry allocates the cell and hands out a
//     cheap copyable Counter handle;
//   * bound metrics — a callback (or a const view of an existing stats
//     object) is registered as the value source, which lets the long-
//     standing per-component structs (engines::EngineQueueStats,
//     driver::WirecapDriverStats, core::WirecapQueueExtraStats, the
//     queue_profiler BinnedSeries) publish through the same tree without
//     adding a single instruction to the paths that update them.
//
// Latency distributions are not registry metrics: they live in
// telemetry::HdrHistogram (latency.hpp) and publish their percentiles
// as bound gauges.
//
// Collision rules: requesting an existing name with the same kind
// returns the existing metric (owned) or replaces the source (bound);
// requesting it with a different kind throws std::logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace wirecap::telemetry {

enum class MetricKind : std::uint8_t {
  kCounter,  // monotone std::uint64_t
  kGauge,    // instantaneous double
  kSeries,   // BinnedSeries (virtual-time binned counts)
};

[[nodiscard]] const char* to_string(MetricKind kind);

class MetricRegistry {
 public:
  class Counter {
   public:
    Counter() = default;
    void add(std::uint64_t n = 1) { *cell_ += n; }
    [[nodiscard]] std::uint64_t value() const { return cell_ ? *cell_ : 0; }

   private:
    friend class MetricRegistry;
    explicit Counter(std::shared_ptr<std::uint64_t> cell)
        : cell_(std::move(cell)) {}
    std::shared_ptr<std::uint64_t> cell_;
  };

  /// One registered metric.  Exactly one of the sources matching `kind`
  /// is set: an owned or bound counter, a bound gauge, a series view.
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::shared_ptr<std::uint64_t> counter;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    const BinnedSeries* series_view = nullptr;
  };

  /// Owned counter (get-or-create).
  Counter counter(const std::string& name);

  // --- bound metrics (register-or-replace the source) ---
  void bind_counter(const std::string& name, std::function<std::uint64_t()> fn);
  void bind_gauge(const std::string& name, std::function<double()> fn);
  /// The view must outlive the registry's last snapshot.
  void bind_series(const std::string& name, const BinnedSeries* view);

  // --- inspection ---
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }
  /// Sorted by name — the deterministic iteration order every exporter
  /// relies on.
  [[nodiscard]] const std::map<std::string, Entry>& entries() const {
    return entries_;
  }

  /// Resolved current value of a counter/gauge entry (owned or bound).
  [[nodiscard]] static std::uint64_t counter_value(const Entry& entry);
  [[nodiscard]] static double gauge_value(const Entry& entry);

  /// Lowercases `component` and maps every non-alphanumeric character to
  /// '_' so engine names ("WireCAP-A") become path segments
  /// ("wirecap_a").
  [[nodiscard]] static std::string sanitize_component(std::string_view name);

 private:
  Entry& get_or_create(const std::string& name, MetricKind kind);

  std::map<std::string, Entry> entries_;
};

}  // namespace wirecap::telemetry
