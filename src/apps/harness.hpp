// Experiment harness: wires a traffic source, the simulated NIC(s), a
// capture engine, per-queue cores and pkt_handler threads into one
// runnable experiment, and collects the drop-rate accounting used by
// every figure and table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/pkt_handler.hpp"
#include "core/wirecap_engine.hpp"
#include "engines/baselines.hpp"
#include "nic/wire.hpp"
#include "pipeline/fanout.hpp"
#include "pipeline/runner.hpp"
#include "sim/bus.hpp"
#include "store/spool.hpp"
#include "store/store_sink.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/source.hpp"

namespace wirecap::apps {

enum class EngineKind {
  kPfRing,
  kDna,
  kNetmap,
  kPsioe,
  kWirecapBasic,
  kWirecapAdvanced,
  kDpdk,            // DPDK model, no offloading (as shipped)
  kDpdkAppOffload,  // DPDK model + hand-rolled app-layer offloading
};

[[nodiscard]] std::string to_string(EngineKind kind);

struct EngineParams {
  EngineKind kind = EngineKind::kWirecapBasic;
  /// WireCAP parameters (M, R, T).
  std::uint32_t cells_per_chunk = 256;
  std::uint32_t chunk_count = 100;
  double offload_threshold = 0.6;
  core::OffloadPolicy offload_policy = core::OffloadPolicy::kLeastBusy;
  /// Tenants sharing the NIC (kWirecapAdvanced and kDpdkAppOffload):
  /// the queues are partitioned into `tenants` contiguous slices, each
  /// registered as its own TenantSpec — a buddy group, or the DPDK
  /// application's peer group.  1 keeps the paper's single
  /// "multi_pkt_handler application" arrangement.  More tenants than
  /// queues makes the Experiment constructor throw.
  std::uint32_t tenants = 1;
  /// Per-tenant chunk-pool quota (0 = each tenant's full pools).
  /// WireCAP-only.
  std::uint32_t tenant_quota = 0;
  /// NUMA node the NIC DMAs into, and per-queue placement of capture
  /// pools/threads (empty = all on nic_numa_node).  WireCAP-only.
  std::uint32_t nic_numa_node = 0;
  std::vector<std::uint32_t> queue_numa_node;

  [[nodiscard]] std::string label() const;

  /// True for either WireCAP mode.
  [[nodiscard]] bool is_wirecap() const {
    return kind == EngineKind::kWirecapBasic ||
           kind == EngineKind::kWirecapAdvanced;
  }
};

struct ExperimentConfig {
  EngineParams engine;
  std::uint32_t num_queues = 1;
  std::uint32_t ring_size = 1024;
  double cpu_ghz = 2.4;
  /// pkt_handler BPF repetitions.
  unsigned x = 0;
  std::string filter = "131.225.2 and udp";
  /// Execute the filter in the BPF VM per packet (slower; benches charge
  /// the cost but skip execution, tests enable it).
  bool execute_filter = false;
  /// Forward processed packets out a second NIC (Figures 13-14).
  bool forward = false;
  /// I/O bus capacity in transactions/s; 0 = unconstrained.
  double bus_transactions_per_second = 0.0;
  sim::CostModel costs{};
  /// Observability knobs (tracer gate/capacity, sampler period).
  /// (Fully qualified: the member name shadows the namespace in class
  /// scope.)
  wirecap::telemetry::TelemetryConfig telemetry{};
  /// Capture-to-disk mode: the per-queue pkt_handlers are replaced by
  /// StoreSinks spooling whole chunks into `spool->dir`, one shard per
  /// queue (num_shards is overridden to num_queues).  WireCAP engines
  /// additionally get the spool-backlog offload feedback wired up.
  std::optional<store::SpoolConfig> spool;
  /// In-capture processing pipeline spec (see pipeline/spec.hpp).
  /// Non-empty enables pipeline mode: each queue gets a PipelineRunner
  /// feeding a FanOut instead of a pkt_handler.  An empty spec string
  /// with a non-null `subscribers` factory also enables pipeline mode
  /// (fan-out with no stages).
  /// (Fully qualified below: the member shadows the namespace.)
  std::string pipeline;
  wirecap::pipeline::Steering steering =
      wirecap::pipeline::Steering::kBroadcast;
  /// Pipeline mode: builds each queue's subscribers.  Null attaches one
  /// internal release-only "sink" subscriber, whose delivery counts are
  /// readable via Experiment::fanout(q).subscriber_stats(0).
  std::function<std::vector<wirecap::pipeline::Subscriber>(std::uint32_t)>
      subscribers;

  [[nodiscard]] bool pipeline_mode() const {
    return !spool && (!pipeline.empty() || subscribers != nullptr);
  }
};

/// The standard observability command-line surface of the benches:
///   --metrics-out=FILE          write the metrics snapshot (JSON; CSV if .csv)
///   --trace-out=FILE            enable tracing, write Chrome-trace JSON
///   --latency                   enable chunk-journey latency tracking
///   --latency-threshold-us=N    flight-recorder outlier threshold
///   --flight-out=FILE           write the flight-recorder dump
/// Unrecognized arguments are ignored so benches can mix in their own.
struct TelemetryFlags {
  std::string metrics_out;
  std::string trace_out;
  bool latency = false;
  double latency_threshold_us = 0.0;  // 0 keeps the config default
  std::string flight_out;

  [[nodiscard]] bool any() const {
    return !metrics_out.empty() || !trace_out.empty() || latency ||
           !flight_out.empty();
  }
  /// Turns the flags into harness knobs: tracing on when --trace-out was
  /// given (with a bench-sized ring), gauge sampling on when either
  /// output is requested.
  void apply(ExperimentConfig& config) const;
  /// Writes the requested files from a finished experiment's telemetry.
  void write(const telemetry::Telemetry& source) const;
};

/// Throws std::invalid_argument on a --latency-threshold-us value that
/// is not a whole finite non-negative number.
[[nodiscard]] TelemetryFlags parse_telemetry_flags(int argc, char** argv);

/// The pipeline command-line surface:
///   --pipeline=SPEC    stage chain, e.g. "filter:tcp|sample:1/8|aggregate"
///   --steering=MODE    broadcast (default) | flow | bpf
/// Unrecognized arguments are ignored (same contract as telemetry flags).
struct PipelineFlags {
  std::string spec;
  std::string steering = "broadcast";

  [[nodiscard]] bool any() const { return !spec.empty(); }
  /// Validates the spec/steering and installs them into `config`.
  /// Throws std::invalid_argument on a malformed spec or steering name.
  void apply(ExperimentConfig& config) const;
};

[[nodiscard]] PipelineFlags parse_pipeline_flags(int argc, char** argv);

/// The engine command-line surface:
///   --offload-policy=NAME   least-busy (default) | random | round-robin
///   --tenants=N             partition the queues into N tenant groups
///   --tenant-quota=N        per-tenant chunk quota (0 = uncapped)
/// Strings are converted (and unknown values rejected with the allowed
/// set spelled out) right here at the CLI boundary — EngineParams
/// carries enums only.
struct EngineFlags {
  std::optional<core::OffloadPolicy> offload_policy;
  std::optional<std::uint32_t> tenants;
  std::optional<std::uint32_t> tenant_quota;

  [[nodiscard]] bool any() const {
    return offload_policy || tenants || tenant_quota;
  }
  void apply(EngineParams& params) const;
};

/// Throws std::invalid_argument on an unknown policy name, or a tenant
/// count or quota that is not a whole unsigned 32-bit decimal.
[[nodiscard]] EngineFlags parse_engine_flags(int argc, char** argv);

struct QueueResult {
  std::uint64_t arrived = 0;          // steered to this queue
  std::uint64_t capture_dropped = 0;  // lost at the NIC ring/FIFO
  std::uint64_t delivery_dropped = 0; // lost between ring and app
  std::uint64_t delivered = 0;        // packets handed to the app thread
  std::uint64_t processed = 0;        // finished by pkt_handler

  [[nodiscard]] double capture_drop_rate() const {
    return arrived ? static_cast<double>(capture_dropped) /
                         static_cast<double>(arrived)
                   : 0.0;
  }
  [[nodiscard]] double delivery_drop_rate() const {
    return arrived ? static_cast<double>(delivery_dropped) /
                         static_cast<double>(arrived)
                   : 0.0;
  }
};

struct ExperimentResult {
  std::string engine_label;
  std::uint64_t sent = 0;
  std::uint64_t capture_dropped = 0;
  std::uint64_t delivery_dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t processed = 0;
  std::uint64_t forwarded_received = 0;  // counted by the packet receiver
  std::uint64_t copies = 0;
  std::uint64_t offloaded_chunks = 0;
  std::vector<QueueResult> per_queue;

  /// Overall drop rate, the paper's headline metric ("to make the
  /// comparison easier, we only calculate the overall packet drop
  /// rate").
  [[nodiscard]] double drop_rate() const {
    return sent ? static_cast<double>(capture_dropped + delivery_dropped) /
                      static_cast<double>(sent)
                : 0.0;
  }
  /// Drop rate measured as the forwarding experiments do: sent minus
  /// packets seen by the receiver behind the second NIC.
  [[nodiscard]] double forwarding_drop_rate() const {
    return sent ? static_cast<double>(sent - forwarded_received) /
                      static_cast<double>(sent)
                : 0.0;
  }
};

/// One fully wired experiment.  Construction builds the fabric; run()
/// injects a traffic source and executes the simulation.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs `source` through the fabric until `horizon` (which must cover
  /// the trace plus drain time), then gathers results.
  ExperimentResult run(trace::TrafficSource& source, Nanos horizon);

  // Wiring access for tests and specialized benches.
  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] nic::MultiQueueNic& nic() { return *nic_; }
  [[nodiscard]] nic::MultiQueueNic& out_nic() { return *nic2_; }
  [[nodiscard]] engines::CaptureEngine& engine() { return *engine_; }
  [[nodiscard]] PktHandler& handler(std::uint32_t queue) {
    return *handlers_.at(queue);
  }
  /// Pipeline mode only (config().pipeline_mode()).
  [[nodiscard]] wirecap::pipeline::FanOut& fanout(std::uint32_t queue) {
    return *fanouts_.at(queue);
  }
  [[nodiscard]] wirecap::pipeline::PipelineRunner& runner(
      std::uint32_t queue) {
    return *runners_.at(queue);
  }
  /// Null unless the experiment was configured with a spool.
  [[nodiscard]] store::Spool* spool() { return spool_.get(); }
  [[nodiscard]] store::StoreSink& store_sink(std::uint32_t queue) {
    return *sinks_.at(queue);
  }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] wirecap::telemetry::Telemetry& telemetry() {
    return telemetry_;
  }
  [[nodiscard]] const wirecap::telemetry::Telemetry& telemetry() const {
    return telemetry_;
  }

 private:
  void bind_telemetry();

  ExperimentConfig config_;
  sim::Scheduler scheduler_;
  wirecap::telemetry::Telemetry telemetry_;
  std::unique_ptr<sim::IoBus> bus_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
  std::unique_ptr<nic::MultiQueueNic> nic2_;  // forwarding target
  std::unique_ptr<engines::CaptureEngine> engine_;
  std::vector<std::unique_ptr<sim::SimCore>> app_cores_;
  std::vector<std::unique_ptr<PktHandler>> handlers_;
  // Pipeline mode (declared after engine_: fan-out slots can hold
  // batches aliasing engine pools, so they tear down first).
  std::vector<std::unique_ptr<wirecap::pipeline::FanOut>> fanouts_;
  std::vector<std::unique_ptr<wirecap::pipeline::PipelineRunner>> runners_;
  // Declared after engine_: sinks/spool hold chunk views into engine
  // pools and must be torn down first.
  std::unique_ptr<store::Spool> spool_;
  std::vector<std::unique_ptr<store::StoreSink>> sinks_;
  std::unique_ptr<wirecap::telemetry::Sampler> sampler_;
};

/// Creates the engine `params.kind` names (to_string(kind) is its
/// name()) over `nic`, building that engine's own config from `params`
/// and `costs`: the one mapping from an EngineKind to an engine.
/// Fields an engine does not use are ignored (PF_RING reads only
/// `costs`); WireCAP reads M, R, the policy and the NUMA placement, and
/// T only for kWirecapAdvanced; the DPDK mempool is matched to R*M.
[[nodiscard]] std::unique_ptr<engines::CaptureEngine> make_engine(
    const EngineParams& params, sim::Scheduler& scheduler,
    nic::MultiQueueNic& nic, const sim::CostModel& costs);

}  // namespace wirecap::apps
