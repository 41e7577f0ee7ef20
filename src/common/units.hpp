// Strongly-typed units used throughout the WireCAP reproduction.
//
// All simulation time is virtual and counted in integer nanoseconds
// (`Nanos`).  Rates are expressed in events per second as double-precision
// values with explicit conversion helpers, so call sites never multiply
// raw numbers of mismatched magnitude.
#pragma once

#include <chrono>
#include <compare>
#include <cstdint>
#include <limits>
#include <ratio>

namespace wirecap {

/// Virtual simulation time in integer nanoseconds since simulation start.
///
/// A thin wrapper (rather than std::chrono::nanoseconds) so that simulation
/// timestamps cannot be accidentally mixed with wall-clock durations.
class Nanos {
 public:
  constexpr Nanos() = default;
  constexpr explicit Nanos(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t count() const { return ns_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(ns_) * 1e-9;
  }
  [[nodiscard]] constexpr double millis() const {
    return static_cast<double>(ns_) * 1e-6;
  }

  [[nodiscard]] static constexpr Nanos from_seconds(double s) {
    return Nanos{static_cast<std::int64_t>(s * 1e9)};
  }
  [[nodiscard]] static constexpr Nanos from_millis(double ms) {
    return Nanos{static_cast<std::int64_t>(ms * 1e6)};
  }
  [[nodiscard]] static constexpr Nanos from_micros(double us) {
    return Nanos{static_cast<std::int64_t>(us * 1e3)};
  }
  [[nodiscard]] static constexpr Nanos zero() { return Nanos{0}; }
  [[nodiscard]] static constexpr Nanos max() {
    return Nanos{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr auto operator<=>(const Nanos&) const = default;

  constexpr Nanos& operator+=(Nanos other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Nanos& operator-=(Nanos other) {
    ns_ -= other.ns_;
    return *this;
  }

  friend constexpr Nanos operator+(Nanos a, Nanos b) {
    return Nanos{a.ns_ + b.ns_};
  }
  friend constexpr Nanos operator-(Nanos a, Nanos b) {
    return Nanos{a.ns_ - b.ns_};
  }
  friend constexpr Nanos operator*(Nanos a, std::int64_t k) {
    return Nanos{a.ns_ * k};
  }
  friend constexpr Nanos operator*(std::int64_t k, Nanos a) { return a * k; }
  friend constexpr std::int64_t operator/(Nanos a, Nanos b) {
    return a.ns_ / b.ns_;
  }

 private:
  std::int64_t ns_ = 0;
};

/// A rate in events (packets, operations, bytes) per second.
class Rate {
 public:
  constexpr Rate() = default;
  constexpr explicit Rate(double per_second) : per_second_(per_second) {}

  [[nodiscard]] constexpr double per_second() const { return per_second_; }
  [[nodiscard]] constexpr bool is_zero() const { return per_second_ <= 0.0; }

  /// Time between consecutive events at this rate.
  [[nodiscard]] constexpr Nanos interval() const {
    return is_zero() ? Nanos::max() : Nanos::from_seconds(1.0 / per_second_);
  }

  /// Number of whole events that fit in `window` at this rate.
  [[nodiscard]] constexpr std::int64_t events_in(Nanos window) const {
    return static_cast<std::int64_t>(per_second_ * window.seconds());
  }

  constexpr auto operator<=>(const Rate&) const = default;

  friend constexpr Rate operator+(Rate a, Rate b) {
    return Rate{a.per_second_ + b.per_second_};
  }
  friend constexpr Rate operator*(Rate a, double k) {
    return Rate{a.per_second_ * k};
  }

 private:
  double per_second_ = 0.0;
};

/// Link speeds and frame geometry for Ethernet wire-rate computations.
namespace ethernet {

/// Per-frame wire overhead: preamble (7) + SFD (1) + inter-frame gap (12).
inline constexpr std::uint32_t kWireOverheadBytes = 20;
/// Frame check sequence appended to every frame.
inline constexpr std::uint32_t kFcsBytes = 4;
inline constexpr std::uint32_t kMinFrameBytes = 64;   // including FCS
inline constexpr std::uint32_t kMaxFrameBytes = 1518; // including FCS

/// Packets per second achievable on a link of `bits_per_second` with
/// frames of `frame_bytes` (frame size includes FCS, excludes
/// preamble/IFG).  For 10 GbE and 64-byte frames this yields the paper's
/// 14.88 Mp/s figure.
[[nodiscard]] constexpr Rate wire_rate(double bits_per_second,
                                       std::uint32_t frame_bytes) {
  const double bytes_on_wire =
      static_cast<double>(frame_bytes + kWireOverheadBytes);
  return Rate{bits_per_second / (8.0 * bytes_on_wire)};
}

inline constexpr double k10GbpsBits = 10e9;
inline constexpr double k40GbpsBits = 40e9;

}  // namespace ethernet

}  // namespace wirecap
