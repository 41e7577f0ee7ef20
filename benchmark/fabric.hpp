// One pass of a workload, untraced or traced.
//
// The untraced pass is exactly what the bench_fig* benches do: a fresh
// apps::Experiment and one run().  The traced pass builds the same fabric
// from the same public classes, in the same order, with decorators at
// the layer boundaries (traffic source, NIC receive, capture engine,
// pipeline stages, fan-out offer, spool offer) and one span per scheduler
// step.  Both passes produce an Outcome, the pass's deterministic
// (virtual-clock) results; the traced one must equal the untraced one.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace wirecap::benchmark {

/// Deterministic results of one pass.
struct Outcome {
  apps::ExperimentResult result;
  // Engine and driver behaviour (summed over queues, high waters maxed).
  std::uint64_t chunks_captured = 0;
  std::uint64_t partial_rescues = 0;
  std::uint64_t chunks_offloaded = 0;
  std::uint64_t handoff_fallbacks = 0;
  std::uint64_t capture_queue_high_water = 0;
  std::uint64_t pending_high_water = 0;
  std::uint64_t polls = 0;
  std::uint64_t fifo_buffered = 0;
  std::uint64_t pool_bytes = 0;
  // Application delivery (virtual clock).
  std::uint64_t app_packets = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  double latency_p999_ns = 0;
  std::uint64_t latency_max_ns = 0;
  // Pipeline consumer: per-stage packets in/out summed over queues.
  std::vector<std::uint64_t> stage_in;
  std::vector<std::uint64_t> stage_out;
  std::uint64_t pipeline_out = 0;
  std::uint64_t fanout_steered = 0;
  std::uint64_t flow_table_packets = 0;
  // Spool consumer.
  std::uint64_t packets_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t segments_opened = 0;

  /// Canonical text of every field; equal digests mean equal outcomes.
  [[nodiscard]] std::string digest() const;
  /// (capture + delivery drops) / sent, in percent.
  [[nodiscard]] double drop_pct() const;
};

/// Appends a message to `errors` for every conservation or consumer law
/// the outcome breaks (sent = drops + delivered, delivered = processed,
/// and the pipeline/spool totals).
void check_outcome(const WorkloadSpec& spec, const Outcome& outcome,
                   std::vector<std::string>& errors);

struct PassResult {
  Outcome outcome;
  /// Host wall time of run().
  double run_s = 0.0;
  /// Resident-set growth from before construction to the end of run().
  double mem_mb = 0.0;
};

/// Host seconds to construct the workload's experiment (destroyed
/// before returning, untimed).
[[nodiscard]] double time_setup(const WorkloadSpec& spec,
                                const std::filesystem::path& spool_dir);

/// One untraced pass over the first `limit` packets.  The spool
/// directory is left in place for queries; the caller removes it.
[[nodiscard]] PassResult run_untraced(const WorkloadSpec& spec,
                                      const Traffic& traffic,
                                      std::uint64_t limit,
                                      const std::filesystem::path& spool_dir);

/// A traced pass: its outcome, wall time and the decorators' counts.
struct TracedPass {
  Outcome outcome;
  /// Host wall time of the traced run (the same region run_s times).
  std::int64_t wall_ns = 0;
  /// Scheduler steps that ran an event (the stop markers excluded).
  std::uint64_t events = 0;
  std::uint64_t batch_calls = 0;  // try_next_batch calls
  std::uint64_t batch_hits = 0;   // ... that delivered packets
};

/// One traced pass over the first `limit` packets, spans into `recorder`.
[[nodiscard]] TracedPass run_traced(const WorkloadSpec& spec,
                                    const Traffic& traffic,
                                    std::uint64_t limit,
                                    const std::filesystem::path& spool_dir,
                                    SpanRecorder& recorder);

/// The two queries made after a spool pass: a merged scan with filter
/// "udp" and a BPF query pinned to the first packet's 5-tuple.
struct QueryResult {
  double open_s = 0.0;
  double read_s = 0.0;
  std::uint64_t scanned = 0;
  std::uint64_t segments = 0;
  std::uint64_t segments_skipped = 0;  // by the pinned query
};

/// Runs the queries over `dir` and checks them against `outcome` and the
/// generated traffic; failures are appended to `errors`.
[[nodiscard]] QueryResult run_queries(const std::filesystem::path& dir,
                                      const Traffic& traffic,
                                      std::uint64_t limit,
                                      const Outcome& outcome,
                                      std::vector<std::string>& errors);

}  // namespace wirecap::benchmark
