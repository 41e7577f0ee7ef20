// Shared plumbing for the reproduction benchmarks: the burst and
// border-trace experiment shapes used by the paper's figures, plus
// minimal table formatting.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "trace/border_router.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::bench {

inline void title(const std::string& text) {
  std::printf("\n=== %s ===\n", text.c_str());
}

inline void note(const std::string& text) {
  std::printf("    %s\n", text.c_str());
}

/// The --pipeline/--steering flags parsed by telemetry_main(), applied
/// by the shared experiment shapes below so every flag-aware bench can
/// run its workload through an in-capture stage chain + fan-out.
inline apps::PipelineFlags& pipeline_flags() {
  static apps::PipelineFlags flags;
  return flags;
}

/// The --offload-policy/--tenants/--tenant-quota flags parsed by
/// telemetry_main(); enum conversion (with the allowed set in the
/// error) happens at the CLI boundary, configs carry enums only.
inline apps::EngineFlags& engine_flags() {
  static apps::EngineFlags flags;
  return flags;
}

/// "The traffic generator transmits P 64-byte packets at the wire rate
/// (14.88 Mp/s)": single queue, one flow, pkt_handler with the given x.
/// With `flags`, the run writes --metrics-out/--trace-out files
/// (successive runs overwrite: last run wins).
inline apps::ExperimentResult run_burst(
    const apps::EngineParams& engine, std::uint64_t packets, unsigned x,
    double drain_s = 5.0, const apps::TelemetryFlags* flags = nullptr) {
  apps::ExperimentConfig config;
  config.engine = engine;
  config.num_queues = 1;
  config.x = x;
  if (flags) flags->apply(config);
  if (pipeline_flags().any()) pipeline_flags().apply(config);
  if (engine_flags().any()) engine_flags().apply(config.engine);
  apps::Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = packets;
  Xoshiro256 rng{0xB0B0};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};

  const Nanos horizon = Nanos::from_seconds(
      static_cast<double>(packets) / source.rate().per_second() + drain_s);
  auto result = experiment.run(source, horizon);
  if (flags) flags->write(experiment.telemetry());
  return result;
}

/// "The traffic generator replays the captured data at the speed exactly
/// as recorded": the synthetic border-router trace, n queues, x=300.
inline apps::ExperimentResult run_border_trace(
    const apps::EngineParams& engine, std::uint32_t num_queues,
    double duration_s, bool forward = false, unsigned x = 300,
    double drain_s = 5.0, const apps::TelemetryFlags* flags = nullptr) {
  apps::ExperimentConfig config;
  config.engine = engine;
  config.num_queues = num_queues;
  config.x = x;
  config.forward = forward;
  if (flags) flags->apply(config);
  if (pipeline_flags().any()) pipeline_flags().apply(config);
  if (engine_flags().any()) engine_flags().apply(config.engine);
  apps::Experiment experiment{config};

  trace::BorderRouterConfig trace_config;
  trace_config.duration_s = duration_s;
  trace_config.num_queues = num_queues;
  trace_config.hot_queue = 0;
  trace_config.bursty_queue = 3 % num_queues;
  auto source = trace::make_border_router_source(trace_config);
  auto result = experiment.run(*source,
                               Nanos::from_seconds(duration_s + drain_s));
  if (flags) flags->write(experiment.telemetry());
  return result;
}

inline std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 100.0);
  return buf;
}

/// Shared main() body for benches taking the standard observability
/// flags (--metrics-out/--trace-out): parses argv once and forwards the
/// flags into the bench's run().  Replaces the main() previously
/// copy-pasted into every flag-aware bench.
inline int telemetry_main(int argc, char** argv,
                          int (*run)(const apps::TelemetryFlags&)) {
  apps::TelemetryFlags flags;
  try {
    pipeline_flags() = apps::parse_pipeline_flags(argc, argv);
    if (pipeline_flags().any()) {
      apps::ExperimentConfig scratch;  // validate spec/steering up front
      pipeline_flags().apply(scratch);
    }
    engine_flags() = apps::parse_engine_flags(argc, argv);
    flags = apps::parse_telemetry_flags(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  return run(flags);
}

}  // namespace wirecap::bench
