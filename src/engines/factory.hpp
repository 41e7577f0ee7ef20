// Engine factory + registry: one place that knows how to build every
// capture engine by name, so benches, examples, the difftest
// crosscheck and the harness stop copy-pasting per-engine construction
// blocks.
//
// Built-in names (registered by wirecap_core, which links all engine
// layers): "PF_RING", "DNA", "NETMAP", "PSIOE", "DPDK",
// "DPDK+app-offload", "WireCAP-B", "WireCAP-A".  Lookup is exact.
// register_engine() adds (or replaces) an entry, e.g. for an ablation
// variant a bench wants to sweep.
//
// The definitions live in src/core/engine_factory.cpp: the registry
// must be able to construct core::WirecapEngine, which the engines
// layer cannot link.  Every consumer of the factory already links
// wirecap_core.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/handoff.hpp"
#include "engines/engine.hpp"
#include "sim/costs.hpp"

namespace wirecap::engines {

/// Engine-construction knobs shared across engine kinds.  Fields an
/// engine does not use are ignored (a PF_RING build reads only
/// `costs`); WireCAP reads M/R and — for "WireCAP-A" — T and the
/// offload policy.  The DPDK mempool is matched to R*M, keeping the
/// tab02-style comparisons honest.
struct EngineConfig {
  sim::CostModel costs{};
  /// M — cells per chunk (WireCAP) / mempool factor (DPDK).
  std::uint32_t cells_per_chunk = 256;
  /// R — chunks per ring buffer pool.
  std::uint32_t chunk_count = 100;
  /// T — offloading threshold ("WireCAP-A" / "DPDK+app-offload" only).
  double offload_threshold = 0.6;
  /// Offload target selection (the paper's policy is least-busy; the
  /// others are ablations).  Enum, not a string: argv is converted once
  /// at the CLI boundary via parse_offload_policy() — see
  /// common/handoff.hpp — which throws listing the allowed set.
  OffloadPolicy offload_policy = OffloadPolicy::kLeastBusy;
  /// NUMA node of the NIC's DMA target (two-socket capture boxes).
  std::uint32_t nic_numa_node = 0;
  /// Per-queue NUMA placement of capture threads + pools; empty keeps
  /// every queue on nic_numa_node.  WireCAP-only (other engines ignore
  /// placement; the paper's testbed is single-socket).
  std::vector<std::uint32_t> queue_numa_node;
};

using EngineFactoryFn = std::function<std::unique_ptr<CaptureEngine>(
    nic::MultiQueueNic&, const EngineConfig&)>;

/// Builds the engine registered under `name` over `nic` (the scheduler
/// comes from nic.scheduler()).  Throws std::invalid_argument for an
/// unknown name — the message lists the registered names.
[[nodiscard]] std::unique_ptr<CaptureEngine> make_engine(
    std::string_view name, nic::MultiQueueNic& nic,
    const EngineConfig& config = {});

/// Registers (or replaces) a factory under `name`.
void register_engine(std::string name, EngineFactoryFn factory);

/// Registered names, sorted — the canonical engine list for matrix
/// benches and crosschecks.
[[nodiscard]] std::vector<std::string> registered_engines();

}  // namespace wirecap::engines
