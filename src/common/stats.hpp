// Statistics collection for experiments: binned time series (the 10 ms
// bins of Figure 3) and the number formatting the benches print with.
// Latency distributions use telemetry::HdrHistogram.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace wirecap {

/// Counts events into fixed-width virtual-time bins.  Figure 3 bins
/// arriving packets into 10 ms intervals; queue_profiler uses this.
class BinnedSeries {
 public:
  explicit BinnedSeries(Nanos bin_width);

  /// Records `count` events at virtual time `t`.
  void record(Nanos t, std::uint64_t count = 1);

  [[nodiscard]] Nanos bin_width() const { return bin_width_; }
  [[nodiscard]] std::size_t bin_count() const { return bins_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
  [[nodiscard]] const std::vector<std::uint64_t>& bins() const { return bins_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Largest bin value — the peak burst intensity.
  [[nodiscard]] std::uint64_t peak() const;

  /// Mean events per bin over [0, last recorded bin].
  [[nodiscard]] double mean() const;

 private:
  Nanos bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Formats `value` with thousands separators ("14,880,952").
[[nodiscard]] std::string with_thousands(std::uint64_t value);

/// Formats a fraction as a percentage with one decimal ("46.5%").
[[nodiscard]] std::string as_percent(double fraction);

}  // namespace wirecap
