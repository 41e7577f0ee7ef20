#include "apps/harness.hpp"

#include "engines/dpdk_engine.hpp"
#include "pipeline/spec.hpp"
#include "telemetry/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace wirecap::apps {

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPfRing: return "PF_RING";
    case EngineKind::kDna: return "DNA";
    case EngineKind::kNetmap: return "NETMAP";
    case EngineKind::kPsioe: return "PSIOE";
    case EngineKind::kWirecapBasic: return "WireCAP-B";
    case EngineKind::kWirecapAdvanced: return "WireCAP-A";
    case EngineKind::kDpdk: return "DPDK";
    case EngineKind::kDpdkAppOffload: return "DPDK+app-offload";
  }
  return "?";
}

std::string EngineParams::label() const {
  switch (kind) {
    case EngineKind::kWirecapBasic: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "WireCAP-B-(%u,%u)", cells_per_chunk,
                    chunk_count);
      return buf;
    }
    case EngineKind::kWirecapAdvanced: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "WireCAP-A-(%u,%u,%.0f%%)",
                    cells_per_chunk, chunk_count, offload_threshold * 100.0);
      return buf;
    }
    default:
      return to_string(kind);
  }
}

std::unique_ptr<engines::CaptureEngine> make_engine(
    const EngineParams& params, sim::Scheduler& scheduler,
    nic::MultiQueueNic& nic, const sim::CostModel& costs) {
  switch (params.kind) {
    case EngineKind::kPfRing:
      return std::make_unique<engines::PfRingEngine>(scheduler, nic, costs);
    case EngineKind::kDna:
      return std::make_unique<engines::Type2Engine>(nic,
                                                    engines::dna_config());
    case EngineKind::kNetmap:
      return std::make_unique<engines::Type2Engine>(nic,
                                                    engines::netmap_config());
    case EngineKind::kPsioe:
      return std::make_unique<engines::PsioeEngine>(nic);
    case EngineKind::kWirecapBasic:
    case EngineKind::kWirecapAdvanced: {
      core::WirecapConfig config;
      config.cells_per_chunk = params.cells_per_chunk;
      config.chunk_count = params.chunk_count;
      config.offload_policy = params.offload_policy;
      config.nic_numa_node = params.nic_numa_node;
      config.queue_numa_node = params.queue_numa_node;
      if (params.kind == EngineKind::kWirecapAdvanced) {
        config.offload_threshold = params.offload_threshold;
      }
      return std::make_unique<core::WirecapEngine>(scheduler, nic, config,
                                                   costs);
    }
    case EngineKind::kDpdk:
    case EngineKind::kDpdkAppOffload: {
      engines::DpdkConfig config;
      // Match the WireCAP pool under comparison: mempool == R * M.
      config.mempool_size = params.cells_per_chunk * params.chunk_count;
      config.app_offload = params.kind == EngineKind::kDpdkAppOffload;
      config.app_offload_threshold = params.offload_threshold;
      return std::make_unique<engines::DpdkEngine>(scheduler, nic, config);
    }
  }
  throw std::invalid_argument("make_engine: unknown EngineKind");
}

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  // Engines whose queues form groups, registered as tenants below.
  const bool grouped =
      config_.engine.kind == EngineKind::kWirecapAdvanced ||
      config_.engine.kind == EngineKind::kDpdkAppOffload;
  if (grouped && config_.engine.tenants > config_.num_queues) {
    // Every tenant owns at least one queue.
    throw std::invalid_argument(
        "Experiment: " + std::to_string(config_.engine.tenants) +
        " tenants need at least as many queues, have " +
        std::to_string(config_.num_queues));
  }
  bus_ = std::make_unique<sim::IoBus>(
      scheduler_, Rate{config_.bus_transactions_per_second});

  nic::NicConfig nic_config;
  nic_config.nic_id = 1;
  nic_config.num_rx_queues = config_.num_queues;
  nic_config.num_tx_queues = std::max(1u, config_.num_queues);
  nic_config.rx_ring_size = config_.ring_size;
  if (config_.engine.is_wirecap()) {
    nic_config.rx_transactions_per_packet =
        config_.costs.wirecap_rx_transactions_per_packet(
            std::uint64_t{config_.num_queues} *
            config_.engine.cells_per_chunk * config_.engine.chunk_count *
            nic::kBufferBytes);
  }
  nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, *bus_, nic_config);

  if (config_.forward) {
    nic::NicConfig nic2_config = nic_config;
    nic2_config.nic_id = 2;
    nic2_ = std::make_unique<nic::MultiQueueNic>(scheduler_, *bus_,
                                                 nic2_config);
  }

  engine_ = make_engine(config_.engine, scheduler_, *nic_, config_.costs);

  for (std::uint32_t q = 0; q < config_.num_queues; ++q) {
    app_cores_.push_back(
        std::make_unique<sim::SimCore>(scheduler_, q, config_.cpu_ghz));
    if (config_.spool) continue;  // spool mode replaces the handlers
    if (config_.pipeline_mode()) {
      // Pipeline mode: stages + fan-out replace the pkt_handler.  The
      // fan-out is built (and its subscribers registered) before the
      // runner starts pulling batches.
      fanouts_.push_back(std::make_unique<wirecap::pipeline::FanOut>(
          *engine_, config_.steering));
      if (config_.subscribers) {
        for (wirecap::pipeline::Subscriber& sub : config_.subscribers(q)) {
          fanouts_.back()->subscribe(std::move(sub));
        }
      } else {
        // Release-only sink so delivery still drains and is counted.
        fanouts_.back()->subscribe(wirecap::pipeline::Subscriber{
            "sink", [](wirecap::pipeline::SharedBatch batch) {
              batch.release();
            },
            std::nullopt});
      }
      wirecap::pipeline::PipelineRunnerConfig runner_config;
      runner_config.x = config_.x;
      runners_.push_back(std::make_unique<wirecap::pipeline::PipelineRunner>(
          *app_cores_[q], *engine_, q,
          wirecap::pipeline::parse_pipeline_spec(config_.pipeline),
          *fanouts_.back(), runner_config, config_.costs));
      continue;
    }
    PktHandlerConfig handler_config;
    handler_config.x = config_.x;
    handler_config.filter = config_.filter;
    handler_config.execute_filter = config_.execute_filter;
    if (config_.forward) {
      handler_config.forward = ForwardTarget{nic2_.get(), q};
    }
    handlers_.push_back(std::make_unique<PktHandler>(
        *app_cores_[q], *engine_, q, handler_config, config_.costs));
  }

  if (config_.spool) {
    store::SpoolConfig spool_config = *config_.spool;
    spool_config.num_shards = config_.num_queues;
    spool_ = std::make_unique<store::Spool>(scheduler_, config_.costs,
                                            spool_config);
    auto* wirecap = dynamic_cast<core::WirecapEngine*>(engine_.get());
    for (std::uint32_t q = 0; q < config_.num_queues; ++q) {
      engine_->open(q, *app_cores_[q]);  // done by PktHandler otherwise
      sinks_.push_back(std::make_unique<store::StoreSink>(
          *engine_, q, spool_->shard(q)));
      if (wirecap) {
        store::SpoolShard* shard = &spool_->shard(q);
        wirecap->set_spool_backlog_probe(
            q, [shard] { return shard->backlog(); });
      }
    }
    for (const auto& sink : sinks_) sink->start();
  }

  if (grouped) {
    // The paper's advanced-mode experiments: "the n queues form a single
    // buddy group" (one multi_pkt_handler application) — generalized to
    // `tenants` co-resident applications, each owning a contiguous slice
    // of the queues as its own buddy group with its own quota.  The DPDK
    // application's app-layer offloading groups its threads the same
    // way (it ignores the quota).
    for (const engines::TenantSpec& spec : engines::slice_tenants(
             std::max(1u, config_.engine.tenants), config_.num_queues,
             config_.engine.tenant_quota)) {
      if (!spec.queues.empty()) engine_->register_tenant(spec);
    }
  }

  bind_telemetry();
}

void Experiment::bind_telemetry() {
  telemetry_.tracer.set_enabled(config_.telemetry.trace);
  if (config_.telemetry.trace_capacity != telemetry_.tracer.capacity()) {
    telemetry_.tracer.set_capacity(config_.telemetry.trace_capacity);
  }
  if (config_.telemetry.latency) {
    telemetry_.latency.set_outlier_threshold(
        config_.telemetry.latency_outlier_threshold);
    telemetry_.latency.set_enabled(true);
  }

  // The engine publishes under engine.<sanitized name>.q<N>.*; the NIC,
  // application cores and pkt_handlers under nic./core./app. — one tree
  // for the whole experiment.
  const std::string prefix =
      "engine." +
      wirecap::telemetry::MetricRegistry::sanitize_component(engine_->name());
  engine_->bind_telemetry(telemetry_, prefix, config_.num_queues);

  for (std::uint32_t q = 0; q < config_.num_queues; ++q) {
    const std::string qn = std::to_string(q);
    telemetry_.registry.bind_counter(
        "nic.q" + qn + ".rx_received",
        [this, q] { return nic_->rx_stats(q).received; });
    telemetry_.registry.bind_counter(
        "nic.q" + qn + ".rx_dropped",
        [this, q] { return nic_->rx_stats(q).dropped; });
    telemetry_.registry.bind_gauge(
        "core.q" + qn + ".app_core.utilization",
        [this, q] { return app_cores_[q]->utilization(); });
    if (config_.spool) {
      const store::StoreSink& sink = *sinks_[q];
      telemetry_.registry.bind_counter(
          "app.q" + qn + ".processed",
          [&sink] { return sink.packets_consumed(); });
      continue;
    }
    if (config_.pipeline_mode()) {
      const wirecap::pipeline::PipelineRunnerStats& rs =
          runners_[q]->stats();
      telemetry_.registry.bind_counter("app.q" + qn + ".processed",
                                       [&rs] { return rs.packets_in; });
      runners_[q]->pipeline().bind_telemetry(telemetry_, "pipeline.q" + qn);
      fanouts_[q]->bind_telemetry(telemetry_, "fanout.q" + qn);
      continue;
    }
    const PktHandlerStats& hs = handlers_[q]->stats();
    telemetry_.registry.bind_counter("app.q" + qn + ".processed",
                                     [&hs] { return hs.processed; });
    telemetry_.registry.bind_counter("app.q" + qn + ".matched",
                                     [&hs] { return hs.matched; });
    if (config_.forward) {
      telemetry_.registry.bind_counter("app.q" + qn + ".forwarded",
                                       [&hs] { return hs.forwarded; });
      telemetry_.registry.bind_counter("app.q" + qn + ".forward_failures",
                                       [&hs] { return hs.forward_failures; });
    }
  }
  if (spool_) spool_->bind_telemetry(telemetry_, "store");
  telemetry_.registry.bind_counter(
      "nic.total_rx_dropped", [this] { return nic_->total_rx_dropped(); });
  if (nic2_) {
    telemetry_.registry.bind_counter(
        "nic2.tx_transmitted", [this] { return nic2_->total_transmitted(); });
  }

  if (config_.telemetry.sample_interval > Nanos::zero()) {
    sampler_ = std::make_unique<wirecap::telemetry::Sampler>(
        scheduler_, telemetry_, config_.telemetry.sample_interval);
    sampler_->start();
  }
}

PipelineFlags parse_pipeline_flags(int argc, char** argv) {
  PipelineFlags flags;
  constexpr std::string_view kPipeline = "--pipeline=";
  constexpr std::string_view kSteering = "--steering=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kPipeline)) {
      flags.spec = std::string(arg.substr(kPipeline.size()));
    } else if (arg.starts_with(kSteering)) {
      flags.steering = std::string(arg.substr(kSteering.size()));
    }
  }
  return flags;
}

void PipelineFlags::apply(ExperimentConfig& config) const {
  // Parse once here so a typo fails at flag time, not mid-experiment.
  (void)wirecap::pipeline::parse_pipeline_spec(spec);
  config.pipeline = spec;
  if (steering == "broadcast") {
    config.steering = wirecap::pipeline::Steering::kBroadcast;
  } else if (steering == "flow") {
    config.steering = wirecap::pipeline::Steering::kFlowHash;
  } else if (steering == "bpf") {
    config.steering = wirecap::pipeline::Steering::kBpfMatch;
  } else {
    throw std::invalid_argument("--steering must be broadcast, flow or bpf");
  }
}

namespace {

/// Parses the whole of `text` as a decimal std::uint32_t.  Throws
/// std::invalid_argument naming `flag` on a sign, an overflow, an empty
/// value or trailing characters (std::stoul would wrap "-1" silently).
std::uint32_t parse_u32_flag(std::string_view flag, std::string_view text) {
  std::uint32_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(std::string(flag) + " needs an unsigned " +
                                "32-bit integer, got \"" + std::string(text) +
                                "\"");
  }
  return value;
}

/// Parses the whole of `text` as a finite, non-negative decimal double.
/// Throws std::invalid_argument naming `flag` on an empty value,
/// trailing characters, a negative value, or inf/nan (std::atof would read
/// "abc" as 0 and "5us" as 5).
double parse_nonnegative_flag(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    throw std::invalid_argument(std::string(flag) +
                                " needs a finite non-negative number, got \"" +
                                std::string(text) + "\"");
  }
  return value;
}

}  // namespace

EngineFlags parse_engine_flags(int argc, char** argv) {
  EngineFlags flags;
  constexpr std::string_view kPolicy = "--offload-policy=";
  constexpr std::string_view kTenants = "--tenants=";
  constexpr std::string_view kQuota = "--tenant-quota=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kPolicy)) {
      flags.offload_policy =
          core::parse_offload_policy(arg.substr(kPolicy.size()));
    } else if (arg.starts_with(kTenants)) {
      flags.tenants =
          parse_u32_flag("--tenants", arg.substr(kTenants.size()));
    } else if (arg.starts_with(kQuota)) {
      flags.tenant_quota =
          parse_u32_flag("--tenant-quota", arg.substr(kQuota.size()));
    }
  }
  return flags;
}

void EngineFlags::apply(EngineParams& params) const {
  if (offload_policy) params.offload_policy = *offload_policy;
  if (tenants) params.tenants = std::max(1u, *tenants);
  if (tenant_quota) params.tenant_quota = *tenant_quota;
}

TelemetryFlags parse_telemetry_flags(int argc, char** argv) {
  TelemetryFlags flags;
  constexpr std::string_view kMetrics = "--metrics-out=";
  constexpr std::string_view kTrace = "--trace-out=";
  constexpr std::string_view kThreshold = "--latency-threshold-us=";
  constexpr std::string_view kFlight = "--flight-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kMetrics)) {
      flags.metrics_out = std::string(arg.substr(kMetrics.size()));
    } else if (arg.starts_with(kTrace)) {
      flags.trace_out = std::string(arg.substr(kTrace.size()));
    } else if (arg == "--latency") {
      flags.latency = true;
    } else if (arg.starts_with(kThreshold)) {
      flags.latency_threshold_us = parse_nonnegative_flag(
          "--latency-threshold-us", arg.substr(kThreshold.size()));
    } else if (arg.starts_with(kFlight)) {
      flags.flight_out = std::string(arg.substr(kFlight.size()));
    }
  }
  return flags;
}

void TelemetryFlags::apply(ExperimentConfig& config) const {
  if (!trace_out.empty()) {
    config.telemetry.trace = true;
    // The multi-second border traces record millions of events; a bench-
    // sized ring keeps the interesting (offload-heavy) tail.
    config.telemetry.trace_capacity = 1u << 20;
  }
  if (any()) {
    // Figure-3 granularity for the gauge counter series.
    config.telemetry.sample_interval = Nanos::from_millis(10);
  }
  if (latency || !flight_out.empty()) {
    config.telemetry.latency = true;
  }
  if (latency_threshold_us > 0.0) {
    config.telemetry.latency_outlier_threshold =
        Nanos::from_micros(latency_threshold_us);
  }
}

void TelemetryFlags::write(const telemetry::Telemetry& source) const {
  if (!metrics_out.empty()) {
    telemetry::write_metrics(source.registry, metrics_out);
  }
  if (!trace_out.empty()) {
    telemetry::write_trace(source.tracer, trace_out);
  }
  if (!flight_out.empty()) {
    const std::string dump = source.latency.recorder().dump();
    if (std::FILE* f = std::fopen(flight_out.c_str(), "wb")) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
    }
  }
}

Experiment::~Experiment() = default;

ExperimentResult Experiment::run(trace::TrafficSource& source, Nanos horizon) {
  nic::TrafficInjector injector(scheduler_, source, *nic_);
  injector.start();
  scheduler_.run_until(horizon);

  if (spool_) {
    // Let the disks catch up, then finalize the footers.  Bounded: a
    // shard stuck behind a never-ending disk-full fault would otherwise
    // spin the capture polls forever.
    Nanos deadline = scheduler_.now();
    for (int i = 0; i < 10'000 && !spool_->drained(); ++i) {
      deadline += Nanos::from_millis(1.0);
      scheduler_.run_until(deadline);
    }
    spool_->close();
  }

  ExperimentResult result;
  result.engine_label = config_.engine.label();
  result.sent = injector.injected();
  result.per_queue.resize(config_.num_queues);
  for (std::uint32_t q = 0; q < config_.num_queues; ++q) {
    const auto& rx = nic_->rx_stats(q);
    const auto engine_stats = engine_->queue_stats(q);
    QueueResult& queue_result = result.per_queue[q];
    queue_result.arrived = rx.received + rx.dropped;
    queue_result.capture_dropped = rx.dropped;
    queue_result.delivery_dropped = engine_stats.delivery_dropped;
    queue_result.delivered = engine_stats.delivered;
    queue_result.processed = config_.spool
                                 ? sinks_[q]->packets_consumed()
                                 : (config_.pipeline_mode()
                                        ? runners_[q]->stats().packets_in
                                        : handlers_[q]->stats().processed);

    result.capture_dropped += rx.dropped;
    result.delivery_dropped += engine_stats.delivery_dropped;
    result.delivered += engine_stats.delivered;
    result.processed += queue_result.processed;
    result.copies += engine_stats.copies;
    result.offloaded_chunks += engine_stats.chunks_offloaded_out;
  }
  if (nic2_) result.forwarded_received = nic2_->total_transmitted();
  return result;
}

}  // namespace wirecap::apps
