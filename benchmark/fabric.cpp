#include "fabric.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "core/wirecap_engine.hpp"
#include "pipeline/stages.hpp"
#include "store/reader.hpp"

namespace wirecap::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Resident-set size in MiB (the second field of /proc/self/statm).
double rss_mb() {
  long size = 0;
  long resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// The parts of a finished fabric an Outcome is read from.
struct FabricView {
  const apps::ExperimentResult* result = nullptr;
  const engines::CaptureEngine* engine = nullptr;
  const nic::MultiQueueNic* nic = nullptr;
  const Delivery* delivery = nullptr;
  std::vector<const pipeline::Pipeline*> pipelines;
  std::vector<const pipeline::FanOut*> fanouts;
  std::vector<const net::FlowTable*> tables;
  const store::Spool* spool = nullptr;
};

/// Folds a fabric's deterministic state into an Outcome.  Both pass kinds
/// go through here, so their outcomes compare field by field.
Outcome collect(const WorkloadSpec& spec, const FabricView& view) {
  Outcome out;
  out.result = *view.result;
  const auto* wirecap = dynamic_cast<const core::WirecapEngine*>(view.engine);
  for (std::uint32_t q = 0; q < spec.queues; ++q) {
    out.fifo_buffered += view.nic->rx_stats(q).fifo_buffered;
    if (!wirecap) continue;
    const driver::WirecapDriverStats& d = wirecap->driver_stats(q);
    const core::WirecapQueueExtraStats& e = wirecap->extra_stats(q);
    out.chunks_captured += d.chunks_captured;
    out.partial_rescues += d.partial_rescues;
    out.chunks_offloaded += wirecap->queue_stats(q).chunks_offloaded_out;
    out.handoff_fallbacks += e.handoff_fallbacks;
    out.capture_queue_high_water =
        std::max(out.capture_queue_high_water, e.capture_queue_high_water);
    out.pending_high_water =
        std::max(out.pending_high_water, e.pending_high_water);
    out.polls += e.polls;
  }
  if (wirecap) out.pool_bytes = wirecap->total_pool_bytes();

  const Delivery& delivery = *view.delivery;
  out.app_packets = delivery.packets;
  out.latency_samples = delivery.latency.count();
  out.latency_p50_ns = delivery.latency.quantile(0.5);
  out.latency_p99_ns = delivery.latency.quantile(0.99);
  out.latency_p999_ns = delivery.latency.quantile(0.999);
  out.latency_max_ns = delivery.latency.max_value();

  for (const pipeline::Pipeline* p : view.pipelines) {
    const auto& stages = p->stages();
    out.stage_in.resize(stages.size());
    out.stage_out.resize(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
      out.stage_in[i] += stages[i]->stats().packets_in;
      out.stage_out[i] += stages[i]->stats().packets_out;
    }
    out.pipeline_out += p->packets_out();
  }
  for (const pipeline::FanOut* f : view.fanouts) {
    for (std::size_t s = 0; s < f->subscriber_count(); ++s) {
      out.fanout_steered += f->subscriber_stats(s).packets;
    }
  }
  for (const net::FlowTable* t : view.tables) {
    out.flow_table_packets += t->total_packets() + t->unclassified();
  }
  if (view.spool) {
    const store::ShardStats stats = view.spool->total_stats();
    out.packets_written = stats.packets_written;
    out.bytes_written = stats.bytes_written;
    out.segments_opened = stats.segments_opened;
  }
  return out;
}

// --- decorators at the layer boundaries --------------------------------

class TracedSource final : public trace::TrafficSource {
 public:
  TracedSource(trace::TrafficSource& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder),
        span_(recorder.intern("trace.next")) {}

  std::optional<net::WirePacket> next() override {
    Span span(&recorder_, span_);
    return inner_.next();
  }
  [[nodiscard]] std::uint64_t expected_packets() const override {
    return inner_.expected_packets();
  }

 private:
  trace::TrafficSource& inner_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId span_;
};

/// nic::TrafficInjector with the NIC receive call spanned; schedules
/// exactly the same events in the same order.
class TracedInjector {
 public:
  TracedInjector(sim::Scheduler& scheduler, trace::TrafficSource& source,
                 nic::MultiQueueNic& nic, SpanRecorder& recorder)
      : scheduler_(scheduler), source_(source), nic_(nic),
        recorder_(recorder), span_(recorder.intern("nic.receive")) {}

  void start() { schedule_next(); }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  void schedule_next() {
    auto packet = source_.next();
    if (!packet) return;
    const Nanos when = packet->timestamp();
    scheduler_.schedule_at(when, [this, p = std::move(*packet)] {
      {
        Span span(&recorder_, span_);
        nic_.receive(p);
      }
      ++injected_;
      schedule_next();
    });
  }

  sim::Scheduler& scheduler_;
  trace::TrafficSource& source_;
  nic::MultiQueueNic& nic_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId span_;
  std::uint64_t injected_ = 0;
};

/// Forwards every CaptureEngine call to the real engine and spans the
/// application-side read and release paths.
class TracedEngine final : public engines::CaptureEngine {
 public:
  TracedEngine(engines::CaptureEngine& inner, SpanRecorder& recorder)
      : inner_(inner),
        recorder_(recorder),
        try_next_batch_(recorder.intern("core.try_next_batch")),
        done_batch_(recorder.intern("core.done_batch")),
        try_next_chunk_(recorder.intern("core.try_next_chunk")),
        done_chunk_(recorder.intern("core.done_chunk")),
        add_batch_shares_(recorder.intern("core.add_batch_shares")) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  void open(std::uint32_t queue, sim::SimCore& app_core) override {
    inner_.open(queue, app_core);
  }
  void close(std::uint32_t queue) override { inner_.close(queue); }
  engines::TenantId register_tenant(const engines::TenantSpec& spec) override {
    return inner_.register_tenant(spec);
  }
  std::optional<engines::CaptureView> try_next(std::uint32_t queue) override {
    return inner_.try_next(queue);
  }
  void done(std::uint32_t queue, const engines::CaptureView& view) override {
    inner_.done(queue, view);
  }
  std::optional<engines::ChunkCaptureView> try_next_chunk(
      std::uint32_t queue, std::size_t max_packets) override {
    Span span(&recorder_, try_next_chunk_);
    auto chunk = inner_.try_next_chunk(queue, max_packets);
    span.set_items(chunk ? chunk->packets.size() : 0);
    return chunk;
  }
  void done_chunk(std::uint32_t queue,
                  const engines::ChunkCaptureView& chunk) override {
    Span span(&recorder_, done_chunk_);
    span.set_items(chunk.packets.size());
    inner_.done_chunk(queue, chunk);
  }
  std::size_t try_next_batch(std::uint32_t queue, std::size_t max_packets,
                             engines::PacketBatch& batch) override {
    Span span(&recorder_, try_next_batch_);
    const std::size_t n = inner_.try_next_batch(queue, max_packets, batch);
    span.set_items(n);
    ++batch_calls;
    if (n) ++batch_hits;
    return n;
  }
  void done_batch(std::uint32_t queue,
                  const engines::PacketBatch& batch) override {
    Span span(&recorder_, done_batch_);
    span.set_items(batch.pending_releases());
    inner_.done_batch(queue, batch);
  }
  [[nodiscard]] bool supports_batch_shares() const override {
    return inner_.supports_batch_shares();
  }
  void add_batch_shares(std::uint32_t queue, const engines::PacketBatch& batch,
                        std::uint32_t extra) override {
    Span span(&recorder_, add_batch_shares_);
    span.set_items(batch.size());
    inner_.add_batch_shares(queue, batch, extra);
  }
  bool forward(std::uint32_t queue, const engines::CaptureView& view,
               nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) override {
    return inner_.forward(queue, view, out_nic, tx_queue);
  }
  [[nodiscard]] Nanos app_overhead_per_packet() const override {
    return inner_.app_overhead_per_packet();
  }
  void set_data_callback(std::uint32_t queue,
                         std::function<void()> fn) override {
    inner_.set_data_callback(queue, std::move(fn));
  }
  [[nodiscard]] engines::EngineQueueStats queue_stats(
      std::uint32_t queue) const override {
    return inner_.queue_stats(queue);
  }

  std::uint64_t batch_calls = 0;
  std::uint64_t batch_hits = 0;

 private:
  engines::CaptureEngine& inner_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId try_next_batch_;
  SpanRecorder::NameId done_batch_;
  SpanRecorder::NameId try_next_chunk_;
  SpanRecorder::NameId done_chunk_;
  SpanRecorder::NameId add_batch_shares_;
};

class TracedStage final : public pipeline::Stage {
 public:
  TracedStage(std::unique_ptr<pipeline::Stage> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)),
        recorder_(recorder),
        span_(recorder.intern("pipeline." + std::string(inner_->name()))) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void process(engines::PacketBatch& batch) override {
    const std::size_t in = batch.size();
    {
      Span span(&recorder_, span_);
      span.set_items(in);
      inner_->process(batch);
    }
    account(in, batch.size());
  }

 private:
  std::unique_ptr<pipeline::Stage> inner_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId span_;
};

/// pipeline::PipelineRunner, line for line, with FanOut::offer spanned.
class TracedRunner {
 public:
  TracedRunner(sim::SimCore& core, engines::CaptureEngine& engine,
               std::uint32_t queue, pipeline::Pipeline stages,
               pipeline::FanOut& fanout, unsigned x,
               const sim::CostModel& costs, SpanRecorder& recorder)
      : core_(core),
        engine_(engine),
        queue_(queue),
        pipeline_(std::move(stages)),
        fanout_(fanout),
        recorder_(recorder),
        offer_(recorder.intern("pipeline.fanout_offer")) {
    per_packet_cost_ =
        costs.pkt_handler_cost(x) + engine.app_overhead_per_packet();
    engine_.open(queue_, core_);
    engine_.set_data_callback(queue_, [this] { maybe_start(); });
    maybe_start();
  }

  [[nodiscard]] const pipeline::Pipeline& stages() const { return pipeline_; }
  [[nodiscard]] std::uint64_t packets_in() const { return packets_in_; }

 private:
  void maybe_start() {
    if (busy_) return;
    busy_ = true;
    process_batch();
  }

  void process_batch() {
    const std::size_t n = engine_.try_next_batch(
        queue_, pipeline::PipelineRunnerConfig{}.batch_packets, batch_);
    if (n == 0) {
      busy_ = false;
      return;
    }
    core_.submit(sim::WorkPriority::kUser,
                 per_packet_cost_ * static_cast<std::int64_t>(n), [this] {
      packets_in_ += batch_.size();
      pipeline_.run(batch_);
      {
        Span span(&recorder_, offer_);
        span.set_items(batch_.size());
        fanout_.offer(queue_, std::move(batch_));
      }
      batch_.clear();
      process_batch();
    });
  }

  sim::SimCore& core_;
  engines::CaptureEngine& engine_;
  std::uint32_t queue_;
  pipeline::Pipeline pipeline_;
  pipeline::FanOut& fanout_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId offer_;
  Nanos per_packet_cost_{};
  std::uint64_t packets_in_ = 0;
  engines::PacketBatch batch_;
  bool busy_ = false;
};

/// store::StoreSink, line for line, with SpoolShard::offer spanned.
class TracedSink {
 public:
  TracedSink(engines::CaptureEngine& engine, std::uint32_t queue,
             store::SpoolShard& shard, SpanRecorder& recorder)
      : engine_(engine), queue_(queue), shard_(shard), recorder_(recorder),
        offer_(recorder.intern("store.offer")) {}

  TracedSink(const TracedSink&) = delete;
  TracedSink& operator=(const TracedSink&) = delete;

  void start() {
    engine_.set_data_callback(queue_, [this] { poll(); });
    shard_.set_drain_callback([this] { poll(); });
    poll();
  }

  [[nodiscard]] std::uint64_t packets_consumed() const {
    return packets_consumed_;
  }

 private:
  void poll() {
    for (;;) {
      if (shard_.policy() == store::BackpressurePolicy::kBlock &&
          !shard_.accepting()) {
        return;
      }
      auto chunk = engine_.try_next_chunk(queue_);
      if (!chunk) return;
      packets_consumed_ += chunk->packets.size();
      Span span(&recorder_, offer_);
      span.set_items(chunk->packets.size());
      shard_.offer(std::move(*chunk),
                   [this](const engines::ChunkCaptureView& done) {
                     engine_.done_chunk(queue_, done);
                   });
    }
  }

  engines::CaptureEngine& engine_;
  std::uint32_t queue_;
  store::SpoolShard& shard_;
  SpanRecorder& recorder_;
  SpanRecorder::NameId offer_;
  std::uint64_t packets_consumed_ = 0;
};

/// apps::Experiment's fabric rebuilt from public classes in the same
/// construction order, so the scheduler sees the same events in the same
/// order and the pass reproduces the untraced outcome exactly.  Member
/// order mirrors Experiment's for the same teardown guarantees.
class TracedFabric {
 public:
  TracedFabric(const WorkloadSpec& spec, const std::filesystem::path& spool_dir,
               SpanRecorder& recorder, Delivery& delivery)
      : spec_(spec),
        recorder_(recorder),
        delivery_(delivery),
        step_(recorder.intern("sim.step")) {
    const apps::ExperimentConfig defaults;
    bus_ = std::make_unique<sim::IoBus>(scheduler_, Rate{0.0});
    nic::NicConfig nic_config;
    nic_config.nic_id = 1;
    nic_config.num_rx_queues = spec_.queues;
    nic_config.num_tx_queues = std::max(1u, spec_.queues);
    nic_config.rx_ring_size = defaults.ring_size;
    if (spec_.engine.is_wirecap()) {
      const double pool_mib = static_cast<double>(spec_.queues) *
                              spec_.engine.cells_per_chunk *
                              spec_.engine.chunk_count * 2048.0 /
                              (1024.0 * 1024.0);
      nic_config.rx_transactions_per_packet =
          1.0 + costs_.wirecap_extra_transactions_per_packet +
          costs_.memory_pressure_transactions_per_mib * pool_mib;
    }
    nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, *bus_, nic_config);
    inner_ = apps::make_engine(spec_.engine, scheduler_, *nic_, costs_);
    engine_ = std::make_unique<TracedEngine>(*inner_, recorder_);
    delivery_.clock = &scheduler_;

    for (std::uint32_t q = 0; q < spec_.queues; ++q) {
      app_cores_.push_back(
          std::make_unique<sim::SimCore>(scheduler_, q, defaults.cpu_ghz));
      if (spec_.consumer == Consumer::kSpool) continue;
      if (spec_.consumer == Consumer::kPipeline) {
        fanouts_.push_back(std::make_unique<pipeline::FanOut>(
            *engine_, pipeline::Steering::kFlowHash));
        for (pipeline::Subscriber& sub : make_subscribers(
                 delivery_, &recorder_,
                 recorder_.intern("pipeline.subscriber"))) {
          fanouts_.back()->subscribe(std::move(sub));
        }
        runners_.push_back(std::make_unique<TracedRunner>(
            *app_cores_[q], *engine_, q, traced_stages(), *fanouts_.back(),
            spec_.x, costs_, recorder_));
        continue;
      }
      apps::PktHandlerConfig handler_config;
      handler_config.x = spec_.x;
      handler_config.filter = defaults.filter;
      handler_config.execute_filter = defaults.execute_filter;
      handlers_.push_back(std::make_unique<apps::PktHandler>(
          *app_cores_[q], *engine_, q, handler_config, costs_));
      handlers_.back()->set_packet_hook(
          [this](const engines::CaptureView& view) { delivery_.record(view); });
    }

    if (spec_.consumer == Consumer::kSpool) {
      store::SpoolConfig config = spool_config(spool_dir);
      config.num_shards = spec_.queues;
      spool_ = std::make_unique<store::Spool>(scheduler_, costs_, config);
      auto* wirecap = dynamic_cast<core::WirecapEngine*>(inner_.get());
      for (std::uint32_t q = 0; q < spec_.queues; ++q) {
        engine_->open(q, *app_cores_[q]);
        sinks_.push_back(std::make_unique<TracedSink>(
            *engine_, q, spool_->shard(q), recorder_));
        if (wirecap) {
          store::SpoolShard* shard = &spool_->shard(q);
          wirecap->set_spool_backlog_probe(
              q, [shard] { return shard->backlog(); });
        }
      }
      for (const auto& sink : sinks_) sink->start();
    }

    if (spec_.engine.kind == apps::EngineKind::kWirecapAdvanced) {
      engines::TenantSpec tenant;
      tenant.name = "t0";
      tenant.chunk_quota = spec_.engine.tenant_quota;
      for (std::uint32_t q = 0; q < spec_.queues; ++q) {
        tenant.queues.push_back(q);
      }
      inner_->register_tenant(tenant);
    }
    inner_->bind_telemetry(
        telemetry_,
        "engine." +
            telemetry::MetricRegistry::sanitize_component(inner_->name()),
        spec_.queues);
  }

  TracedPass run(trace::TrafficSource& source, Nanos horizon) {
    TracedSource traced_source(source, recorder_);
    TracedInjector injector(scheduler_, traced_source, *nic_, recorder_);
    const std::int64_t t0 = SpanRecorder::now_ns();
    injector.start();
    step_until(horizon);
    if (spool_) {
      Nanos deadline = scheduler_.now();
      for (int i = 0; i < 10'000 && !spool_->drained(); ++i) {
        deadline += Nanos::from_millis(1.0);
        step_until(deadline);
      }
      spool_->close();
    }
    const apps::ExperimentResult result = assemble(injector.injected());
    TracedPass pass;
    pass.wall_ns = SpanRecorder::now_ns() - t0;
    pass.events = recorder_.aggregate(step_).count - markers_;
    pass.batch_calls = engine_->batch_calls;
    pass.batch_hits = engine_->batch_hits;

    FabricView view;
    view.result = &result;
    view.engine = inner_.get();
    view.nic = nic_.get();
    view.delivery = &delivery_;
    for (const auto& runner : runners_) {
      view.pipelines.push_back(&runner->stages());
    }
    for (const auto& fanout : fanouts_) view.fanouts.push_back(fanout.get());
    view.tables = tables_;
    view.spool = spool_.get();
    pass.outcome = collect(spec_, view);
    return pass;
  }

 private:
  pipeline::Pipeline traced_stages() {
    pipeline::Pipeline stages;
    stages.add(std::make_unique<TracedStage>(
        std::make_unique<pipeline::FilterStage>(std::string(kPipelineFilter)),
        recorder_));
    stages.add(std::make_unique<TracedStage>(
        std::make_unique<pipeline::SampleStage>(pipeline::SampleMode::kOneInN,
                                                kPipelineSampleN),
        recorder_));
    auto aggregate = std::make_unique<pipeline::AggregateStage>();
    tables_.push_back(&aggregate->table());
    stages.add(std::make_unique<TracedStage>(std::move(aggregate), recorder_));
    return stages;
  }

  /// Scheduler::run_until(deadline), one span per step.  Consecutive
  /// steps share their boundary timestamp, so the spans tile the loop
  /// and its bookkeeping lands in the step self time.  The scheduler has
  /// no peek, so a marker event at `deadline` ends the loop; events
  /// queued at exactly `deadline` behind it run in the final
  /// run_until().  The marker takes one insertion slot, which shifts
  /// every later sequence number equally and leaves the order of real
  /// events unchanged.
  void step_until(Nanos deadline) {
    bool reached = false;
    scheduler_.schedule_at(deadline, [&reached] { reached = true; });
    ++markers_;
    std::int64_t t = SpanRecorder::now_ns();
    while (!reached) {
      recorder_.begin_at(step_, t);
      const bool ran = scheduler_.step();
      t = SpanRecorder::now_ns();
      recorder_.end_at(t);
      if (!ran) break;
    }
    scheduler_.run_until(deadline);
  }

  /// Experiment::run()'s result assembly.
  apps::ExperimentResult assemble(std::uint64_t sent) const {
    apps::ExperimentResult result;
    result.engine_label = spec_.engine.label();
    result.sent = sent;
    result.per_queue.resize(spec_.queues);
    for (std::uint32_t q = 0; q < spec_.queues; ++q) {
      const auto& rx = nic_->rx_stats(q);
      const auto engine_stats = inner_->queue_stats(q);
      apps::QueueResult& queue_result = result.per_queue[q];
      queue_result.arrived = rx.received + rx.dropped;
      queue_result.capture_dropped = rx.dropped;
      queue_result.delivery_dropped = engine_stats.delivery_dropped;
      queue_result.delivered = engine_stats.delivered;
      switch (spec_.consumer) {
        case Consumer::kHandler:
          queue_result.processed = handlers_[q]->stats().processed;
          break;
        case Consumer::kPipeline:
          queue_result.processed = runners_[q]->packets_in();
          break;
        case Consumer::kSpool:
          queue_result.processed = sinks_[q]->packets_consumed();
          break;
      }
      result.capture_dropped += rx.dropped;
      result.delivery_dropped += engine_stats.delivery_dropped;
      result.delivered += engine_stats.delivered;
      result.processed += queue_result.processed;
      result.copies += engine_stats.copies;
      result.offloaded_chunks += engine_stats.chunks_offloaded_out;
    }
    return result;
  }

  const WorkloadSpec spec_;
  SpanRecorder& recorder_;
  Delivery& delivery_;
  SpanRecorder::NameId step_;
  std::uint64_t markers_ = 0;
  sim::CostModel costs_{};
  sim::Scheduler scheduler_;
  telemetry::Telemetry telemetry_;
  std::unique_ptr<sim::IoBus> bus_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
  std::unique_ptr<engines::CaptureEngine> inner_;
  std::unique_ptr<TracedEngine> engine_;
  std::vector<std::unique_ptr<sim::SimCore>> app_cores_;
  std::vector<std::unique_ptr<apps::PktHandler>> handlers_;
  std::vector<std::unique_ptr<pipeline::FanOut>> fanouts_;
  std::vector<std::unique_ptr<TracedRunner>> runners_;
  std::vector<const net::FlowTable*> tables_;
  std::unique_ptr<store::Spool> spool_;
  std::vector<std::unique_ptr<TracedSink>> sinks_;
};

}  // namespace

std::string Outcome::digest() const {
  std::string text;
  char buf[128];
  const auto add = [&](const char* name, double value) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, value);
    text += buf;
  };
  const auto add_u = [&](const char* name, std::uint64_t value) {
    std::snprintf(buf, sizeof(buf), "%s=%llu;", name,
                  static_cast<unsigned long long>(value));
    text += buf;
  };
  add_u("sent", result.sent);
  add_u("capture_dropped", result.capture_dropped);
  add_u("delivery_dropped", result.delivery_dropped);
  add_u("delivered", result.delivered);
  add_u("processed", result.processed);
  add_u("copies", result.copies);
  add_u("offloaded_chunks", result.offloaded_chunks);
  for (const apps::QueueResult& q : result.per_queue) {
    add_u("q.arrived", q.arrived);
    add_u("q.capture_dropped", q.capture_dropped);
    add_u("q.delivered", q.delivered);
    add_u("q.processed", q.processed);
  }
  add_u("chunks_captured", chunks_captured);
  add_u("partial_rescues", partial_rescues);
  add_u("chunks_offloaded", chunks_offloaded);
  add_u("handoff_fallbacks", handoff_fallbacks);
  add_u("capture_queue_high_water", capture_queue_high_water);
  add_u("pending_high_water", pending_high_water);
  add_u("polls", polls);
  add_u("fifo_buffered", fifo_buffered);
  add_u("pool_bytes", pool_bytes);
  add_u("app_packets", app_packets);
  add_u("latency_samples", latency_samples);
  add("latency_p50_ns", latency_p50_ns);
  add("latency_p99_ns", latency_p99_ns);
  add("latency_p999_ns", latency_p999_ns);
  add_u("latency_max_ns", latency_max_ns);
  for (std::size_t i = 0; i < stage_in.size(); ++i) {
    add_u("stage.in", stage_in[i]);
    add_u("stage.out", stage_out[i]);
  }
  add_u("pipeline_out", pipeline_out);
  add_u("fanout_steered", fanout_steered);
  add_u("flow_table_packets", flow_table_packets);
  add_u("packets_written", packets_written);
  add_u("bytes_written", bytes_written);
  add_u("segments_opened", segments_opened);
  return text;
}

double Outcome::drop_pct() const {
  return 100.0 * result.drop_rate();
}

void check_outcome(const WorkloadSpec& spec, const Outcome& o,
                   std::vector<std::string>& errors) {
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(spec.name + ": " + what);
  };
  const apps::ExperimentResult& r = o.result;
  expect(r.sent == r.capture_dropped + r.delivery_dropped + r.delivered,
         "sent != drops + delivered");
  expect(r.delivered == r.processed, "delivered != processed");
  switch (spec.consumer) {
    case Consumer::kHandler:
      expect(o.app_packets == r.processed,
             "packet hook saw a different count than processed");
      break;
    case Consumer::kPipeline:
      expect(!o.stage_in.empty() && o.stage_in.front() == r.processed,
             "first stage input != processed");
      expect(o.app_packets == o.fanout_steered,
             "subscriber packets != fan-out steered count");
      expect(o.fanout_steered == o.pipeline_out,
             "fan-out steered count != pipeline output");
      expect(!o.stage_in.empty() && o.flow_table_packets == o.stage_in.back(),
             "aggregate FlowTable total != aggregate stage input");
      break;
    case Consumer::kSpool:
      expect(o.packets_written == r.processed,
             "spool packets_written != packets consumed");
      break;
  }
}

double time_setup(const WorkloadSpec& spec,
                  const std::filesystem::path& spool_dir) {
  Delivery delivery;
  apps::ExperimentConfig config = experiment_config(spec, spool_dir, delivery);
  const auto t0 = Clock::now();
  Clock::time_point t1;
  {
    apps::Experiment experiment{std::move(config)};
    t1 = Clock::now();
  }
  return seconds_between(t0, t1);
}

PassResult run_untraced(const WorkloadSpec& spec, const Traffic& traffic,
                        std::uint64_t limit,
                        const std::filesystem::path& spool_dir) {
  PassResult pass;
  Delivery delivery;
  apps::ExperimentConfig config = experiment_config(spec, spool_dir, delivery);
  const double rss_before = rss_mb();
  apps::Experiment experiment{std::move(config)};
  delivery.clock = &experiment.scheduler();
  if (spec.consumer == Consumer::kHandler) {
    for (std::uint32_t q = 0; q < spec.queues; ++q) {
      experiment.handler(q).set_packet_hook(
          [&delivery](const engines::CaptureView& view) {
            delivery.record(view);
          });
    }
  }
  auto source = traffic.source(limit);
  const Nanos horizon = traffic.horizon(limit);
  const auto t0 = Clock::now();
  const apps::ExperimentResult result = experiment.run(*source, horizon);
  const auto t1 = Clock::now();
  pass.run_s = seconds_between(t0, t1);
  pass.mem_mb = rss_mb() - rss_before;

  FabricView view;
  view.result = &result;
  view.engine = &experiment.engine();
  view.nic = &experiment.nic();
  view.delivery = &delivery;
  if (spec.consumer == Consumer::kPipeline) {
    for (std::uint32_t q = 0; q < spec.queues; ++q) {
      pipeline::Pipeline& stages = experiment.runner(q).pipeline();
      view.pipelines.push_back(&stages);
      view.fanouts.push_back(&experiment.fanout(q));
      auto* aggregate =
          dynamic_cast<pipeline::AggregateStage*>(stages.find("aggregate"));
      if (aggregate) view.tables.push_back(&aggregate->table());
    }
  }
  view.spool = experiment.spool();
  pass.outcome = collect(spec, view);
  return pass;
}

TracedPass run_traced(const WorkloadSpec& spec, const Traffic& traffic,
                      std::uint64_t limit,
                      const std::filesystem::path& spool_dir,
                      SpanRecorder& recorder) {
  Delivery delivery;
  TracedFabric fabric(spec, spool_dir, recorder, delivery);
  auto source = traffic.source(limit);
  return fabric.run(*source, traffic.horizon(limit));
}

QueryResult run_queries(const std::filesystem::path& dir,
                        const Traffic& traffic, std::uint64_t limit,
                        const Outcome& outcome,
                        std::vector<std::string>& errors) {
  QueryResult q;
  const auto t0 = Clock::now();
  const store::StoreReader reader(dir);
  const auto t1 = Clock::now();
  q.open_s = seconds_between(t0, t1);
  q.segments = reader.segments().size();

  // Merged scan with a protocol filter: every record is read, the UDP
  // ones are returned, each exactly once.
  store::StoreQuery udp;
  udp.filter = "udp";
  std::unordered_set<std::uint64_t> seqs;
  bool missing_id = false;
  const store::StoreReadStats scan = reader.read_merged(
      udp, [&](const net::PcapngRecord& record, std::uint32_t) {
        if (!record.packet_id) {
          missing_id = true;
          return;
        }
        seqs.insert(*record.packet_id);
      });

  // A BPF query pinned to one 5-tuple: the footer indexes skip every
  // segment that cannot hold the flow.
  const net::FlowKey flow = traffic.first_flow();
  store::StoreQuery pinned;
  pinned.filter = "src host " + flow.src_ip.to_string() + " and dst host " +
                  flow.dst_ip.to_string() + " and src port " +
                  std::to_string(flow.src_port) + " and dst port " +
                  std::to_string(flow.dst_port) + " and " +
                  net::to_string(flow.proto);
  std::uint64_t flow_matches = 0;
  const store::StoreReadStats pin = reader.read_merged(
      pinned, [&](const net::PcapngRecord&, std::uint32_t) { ++flow_matches; });
  const auto t2 = Clock::now();
  q.read_s = seconds_between(t1, t2);
  q.scanned = scan.packets_scanned + pin.packets_scanned;
  q.segments_skipped = pin.segments_skipped_filter + pin.segments_skipped_flow;

  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back("store query: " + what);
  };
  expect(scan.packets_scanned == outcome.packets_written,
         "full scan read " + std::to_string(scan.packets_scanned) +
             " records, spool wrote " +
             std::to_string(outcome.packets_written));
  expect(!missing_id, "record without a packet id");
  expect(seqs.size() == scan.packets_matched, "duplicate sequence numbers");
  // The generator's counts hold only when nothing was lost on the way.
  if (outcome.result.sent == outcome.packets_written) {
    const std::uint64_t udp_sent = traffic.count_packets(
        [](const net::FlowKey& f) { return f.proto == net::IpProto::kUdp; },
        limit);
    expect(scan.packets_matched == udp_sent,
           "udp matches " + std::to_string(scan.packets_matched) +
               " != generated udp packets " + std::to_string(udp_sent));
    const std::uint64_t flow_sent = traffic.count_packets(
        [&flow](const net::FlowKey& f) { return f == flow; }, limit);
    expect(flow_matches == flow_sent,
           "pinned query matched " + std::to_string(flow_matches) +
               ", flow sent " + std::to_string(flow_sent));
  }
  return q;
}

}  // namespace wirecap::benchmark
