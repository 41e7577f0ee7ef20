// Isolated layer probes: the workload's own packets replayed straight
// through layer APIs that the fabric only calls from inside scheduler
// events (driver capture/recycle, BPF execution, segment writes), plus
// the lock-free and locked handoff primitives and the bare scheduler.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace wirecap::benchmark {

struct ProbeResults {
  /// Per-layer metrics by name (host ns, medians of repetitions).
  std::map<std::string, double> metrics;
  /// Host cost of one driver capture / recycle ioctl, per chunk.
  double capture_chunk_ns = 0.0;
  double recycle_chunk_ns = 0.0;
};

/// Host nanoseconds per iteration of a fixed integer loop (a branchy
/// 32-bit bit hash, no memory traffic, about 25 ms per call).  The loop is
/// the benchmark's own and never changes, so its time tracks only how fast
/// the host currently runs this thread; end-to-end host metrics are
/// scaled by it.
[[nodiscard]] double reference_loop_ns();

/// reference_loop_ns() on an idle 2.1 GHz Xeon 4-vCPU VM, the host the
/// benchmark was defined on.
inline constexpr double kReferenceLoopNs = 25.0;

/// Runs every probe over `sample`; segment files go under `dir`, which
/// is removed afterwards.
[[nodiscard]] ProbeResults run_probes(
    const std::vector<net::WirePacket>& sample,
    const std::filesystem::path& dir);

/// Prints, for each sim::CostModel constant that models this repo's own
/// code, the measured host value beside the assumed one and their ratio
/// (calib.<constant>_ratio); lists the remaining constants as
/// paper-calibrated or hardware models, uncompared.
void print_calibration(const ProbeResults& probes, std::FILE* out);

}  // namespace wirecap::benchmark
