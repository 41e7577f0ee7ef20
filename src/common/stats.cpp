#include "common/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace wirecap {

BinnedSeries::BinnedSeries(Nanos bin_width) : bin_width_(bin_width) {
  if (bin_width.count() <= 0) {
    throw std::invalid_argument("BinnedSeries: bin width must be positive");
  }
}

void BinnedSeries::record(Nanos t, std::uint64_t count) {
  if (t.count() < 0) {
    throw std::invalid_argument("BinnedSeries: negative time");
  }
  const auto bin = static_cast<std::size_t>(t.count() / bin_width_.count());
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0);
  bins_[bin] += count;
  total_ += count;
}

std::uint64_t BinnedSeries::peak() const {
  if (bins_.empty()) return 0;
  return *std::max_element(bins_.begin(), bins_.end());
}

double BinnedSeries::mean() const {
  if (bins_.empty()) return 0.0;
  return static_cast<double>(total_) / static_cast<double>(bins_.size());
}

std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t leading = digits.size() % 3;
  if (leading == 0) leading = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - leading) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string as_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace wirecap
