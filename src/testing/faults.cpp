#include "testing/faults.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "core/wirecap_engine.hpp"
#include "net/packet.hpp"
#include "nic/device.hpp"
#include "sim/core.hpp"
#include "sim/costs.hpp"
#include "store/reader.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::testing {

namespace {

/// Delay before a close attempt / between retries, letting in-flight
/// DMA into the queue complete (RxRing::reset requires a quiesced
/// ring).
constexpr Nanos kDmaSettle = Nanos::from_micros(20);
/// Gap between a successful close and the reopen — long enough for TX
/// requests still referencing the torn-down pool to leave the wire.
constexpr Nanos kReopenDelay = Nanos::from_micros(100);
constexpr Nanos kAppPollInterval = Nanos::from_micros(2);
constexpr int kCloseRetries = 50;
/// Mean inter-arrival of background traffic, per queue.
constexpr Nanos kMeanGap = Nanos::from_micros(2);
/// Cadence of the conservation audit.
constexpr Nanos kCheckInterval = Nanos::from_micros(25);

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelayedRecycle: return "delayed-recycle";
    case FaultKind::kWithheldRecycle: return "withheld-recycle";
    case FaultKind::kAppStall: return "app-stall";
    case FaultKind::kTxBurst: return "tx-burst";
    case FaultKind::kPoolExhaust: return "pool-exhaust";
    case FaultKind::kTimeoutStorm: return "timeout-storm";
    case FaultKind::kQueueReopen: return "queue-reopen";
    case FaultKind::kSlowDisk: return "slow-disk";
    case FaultKind::kDiskFull: return "disk-full";
    case FaultKind::kTenantExhaust: return "tenant-exhaust";
  }
  return "?";
}

FaultPlan FaultPlan::generate(const FaultPlanConfig& config) {
  FaultPlan plan;
  plan.seed_ = config.seed;
  Xoshiro256 rng{config.seed ^ 0xFA017EC7ULL};

  std::vector<FaultKind> kinds = {
      FaultKind::kDelayedRecycle, FaultKind::kWithheldRecycle,
      FaultKind::kAppStall,       FaultKind::kTxBurst,
      FaultKind::kPoolExhaust,    FaultKind::kTimeoutStorm,
      FaultKind::kQueueReopen,
  };
  if (config.spool_faults) {
    kinds.push_back(FaultKind::kSlowDisk);
    kinds.push_back(FaultKind::kDiskFull);
  }
  if (config.num_tenants > 1) kinds.push_back(FaultKind::kTenantExhaust);

  const std::uint32_t fault_queues =
      config.fault_queue_limit == 0
          ? config.num_queues
          : std::min(config.fault_queue_limit, config.num_queues);

  const double window = static_cast<double>(config.horizon.count());
  for (std::uint32_t i = 0; i < config.event_count; ++i) {
    FaultEvent event;
    // Leave the first 5% as warmup so adversity hits a flowing pipeline.
    event.at = Nanos{static_cast<std::int64_t>(
        window * (0.05 + 0.90 * rng.next_double()))};
    event.kind = kinds[rng.next_below(kinds.size())];
    event.queue = static_cast<std::uint32_t>(rng.next_below(fault_queues));
    switch (event.kind) {
      case FaultKind::kDelayedRecycle:
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(10, 80)));
        event.magnitude = static_cast<std::uint32_t>(rng.next_in(4, 24));
        break;
      case FaultKind::kWithheldRecycle:
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(500, 2000)));
        event.magnitude = static_cast<std::uint32_t>(rng.next_in(2, 8));
        break;
      case FaultKind::kAppStall:
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(20, 200)));
        break;
      case FaultKind::kTxBurst:
        event.magnitude = static_cast<std::uint32_t>(rng.next_in(16, 64));
        break;
      case FaultKind::kPoolExhaust:
      case FaultKind::kTenantExhaust:
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(50, 300)));
        break;
      case FaultKind::kTimeoutStorm:
        event.magnitude = static_cast<std::uint32_t>(rng.next_in(3, 8));
        break;
      case FaultKind::kQueueReopen:
        break;
      case FaultKind::kSlowDisk:
        // Long enough that the backlog builds into the offload feedback,
        // short enough that the drain window clears it.
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(100, 400)));
        event.magnitude = static_cast<std::uint32_t>(rng.next_in(4, 16));
        break;
      case FaultKind::kDiskFull:
        event.duration = Nanos::from_micros(
            static_cast<double>(rng.next_in(50, 200)));
        break;
    }
    plan.events_.push_back(event);
  }
  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.at < b.at;
            });
  return plan;
}

FaultHarness::FaultHarness(FaultHarnessConfig config)
    : config_(config),
      plan_(FaultPlan::generate(config.plan)),
      rng_(config.plan.seed),
      bus_(scheduler_),
      auditor_(AuditorConfig{config.throw_on_violation}) {
  const std::uint32_t queues = config_.plan.num_queues;

  nic::NicConfig nic_config;
  nic_config.nic_id = 1;
  nic_config.num_rx_queues = queues;
  nic_config.num_tx_queues = 1;
  nic_config.rx_ring_size = config_.rx_ring_size;
  nic_config.tx_ring_size = config_.tx_ring_size;
  nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, bus_, nic_config);

  core::WirecapConfig engine_config;
  engine_config.cells_per_chunk = config_.cells_per_chunk;
  engine_config.chunk_count = config_.chunk_count;
  // Advanced mode (buddy offloading) puts chunks on foreign capture
  // queues — the paths close() must sweep.
  if (queues > 1) engine_config.offload_threshold = 0.5;
  // Aggressive timing so the short horizon covers many rescue and poll
  // cycles.
  costs_.partial_chunk_timeout = Nanos::from_micros(30);
  costs_.capture_poll_interval = Nanos::from_micros(10);
  engine_ = std::make_unique<core::WirecapEngine>(scheduler_, *nic_,
                                                  engine_config, costs_);

  // Auditor and telemetry attach *before* any queue opens: this is the
  // late-open binding path (metrics must appear when open() happens).
  // Latency tracking is enabled first so the engine's per-queue bind
  // sees it and publishes the latency gauges.
  if (config_.latency) {
    telemetry_.latency.set_outlier_threshold(config_.latency_outlier_threshold);
    telemetry_.latency.set_enabled(true);
  }
  engine_->set_pool_observer(&auditor_);
  engine_->bind_telemetry(telemetry_, "faults", queues);
  auditor_.bind_telemetry(telemetry_, "faults",
                          [this] { return scheduler_.now(); });

  apps_.resize(queues);
  queue_open_.assign(queues, false);
  for (std::uint32_t q = 0; q < queues; ++q) {
    app_cores_.push_back(std::make_unique<sim::SimCore>(scheduler_, 2000 + q));
    flows_.push_back(trace::flows_for_queue(rng_, q, queues, 4));
    queue_rngs_.emplace_back(config_.plan.seed ^
                             (0x9E3779B97F4A7C15ULL * (q + 1)));
  }

  if (config_.spool) {
    held_chunks_.resize(queues);
    spool_dir_ = config_.spool_dir;
    if (spool_dir_.empty()) {
      spool_dir_ = std::filesystem::temp_directory_path() /
                   ("wirecap-fault-spool-" + std::to_string(::getpid()) +
                    "-seed" + std::to_string(config_.plan.seed));
      remove_spool_dir_ = true;
    }
    std::filesystem::remove_all(spool_dir_);
    store::SpoolConfig spool_config;
    spool_config.dir = spool_dir_;
    spool_config.num_shards = queues;
    spool_config.policy = config_.spool_policy;
    // Small bounds so backpressure and segment rotation actually engage
    // under the harness's tiny geometry.
    spool_config.queue_capacity_chunks = 8;
    spool_config.segment_max_bytes = 64u << 10;
    spool_config.segment_max_span = Nanos::from_micros(500);
    spool_config.record_lost_seqs = true;
    spool_ = std::make_unique<store::Spool>(scheduler_, costs_, spool_config);
    spool_->bind_telemetry(telemetry_, "faults.store");
    for (std::uint32_t q = 0; q < queues; ++q) {
      store::SpoolShard* shard = &spool_->shard(q);
      engine_->set_spool_backlog_probe(q, [shard] { return shard->backlog(); });
      // Namespaced traffic seqs give every packet a globally unique id
      // for the round-trip conservation audit.
      apps_[q].seq = static_cast<std::uint64_t>(q) << 40;
    }
  }
}

FaultHarness::~FaultHarness() {
  if (!remove_spool_dir_) return;
  spool_.reset();  // close its segment files first
  std::error_code ec;
  std::filesystem::remove_all(spool_dir_, ec);
}

void FaultHarness::open_queue(std::uint32_t queue) {
  engine_->open(queue, *app_cores_[queue]);
  queue_open_[queue] = true;
  rebind_buddies();
}

std::uint32_t FaultHarness::tenant_of(std::uint32_t queue) const {
  return engines::slice_owner(queue, std::max(1u, config_.plan.num_tenants),
                              config_.plan.num_queues);
}

void FaultHarness::rebind_buddies() {
  // Each tenant re-registers over its currently-open member queues
  // (registration is an upsert by name, so reopen cycles just refresh
  // the spec).  A tenant with every queue closed keeps its stale spec;
  // the engine already ignores closed buddies in dispatch.
  const std::uint32_t tenants = std::max(1u, config_.plan.num_tenants);
  for (engines::TenantSpec& spec : engines::slice_tenants(
           tenants, config_.plan.num_queues, config_.tenant_quota)) {
    std::erase_if(spec.queues,
                  [this](std::uint32_t q) { return !queue_open_[q]; });
    // The single-tenant harness keeps the historical behaviour: no
    // buddy group until at least two queues are up.
    const std::size_t min_queues = tenants == 1 ? 2 : 1;
    if (spec.queues.size() >= min_queues) engine_->register_tenant(spec);
  }
}

void FaultHarness::schedule_traffic(std::uint32_t queue, Nanos at) {
  if (at >= config_.plan.horizon) return;
  scheduler_.schedule_at(at, [this, queue] {
    AppState& app = apps_[queue];
    const auto& flows = flows_[queue];
    Xoshiro256& rng = queue_rngs_[queue];
    const std::uint32_t wire_len =
        64 + static_cast<std::uint32_t>(rng.next_below(200));
    nic_->receive(net::WirePacket::make(
        scheduler_.now(), flows[rng.next_below(flows.size())], wire_len,
        app.seq++));
    const double jitter = 0.2 + 1.6 * rng.next_double();
    schedule_traffic(queue,
                     scheduler_.now() +
                         Nanos{static_cast<std::int64_t>(
                             jitter *
                             static_cast<double>(kMeanGap.count()))});
  });
}

void FaultHarness::release_due(std::uint32_t queue) {
  AppState& app = apps_[queue];
  const Nanos now = scheduler_.now();
  for (std::size_t i = 0; i < app.held.size();) {
    if (app.held[i].release_at <= now) {
      if (!queue_open_[queue]) ++late_releases_;
      engine_->done(queue, app.held[i].view);
      app.held[i] = app.held.back();
      app.held.pop_back();
    } else {
      ++i;
    }
  }
}

void FaultHarness::consume(std::uint32_t queue,
                           const engines::CaptureView& view) {
  AppState& app = apps_[queue];
  const Nanos now = scheduler_.now();
  if (app.tx_burst_remaining > 0) {
    --app.tx_burst_remaining;
    // forward() releases the chunk itself when the TX ring is full.
    if (engine_->forward(queue, view, *nic_, 0)) ++forwarded_;
    return;
  }
  if (app.exhaust_until > now) {
    app.held.push_back(HeldView{view, queue, app.exhaust_until});
    return;
  }
  if (app.delay_remaining > 0) {
    --app.delay_remaining;
    const double jitter = 0.5 + rng_.next_double();
    Nanos release =
        now + Nanos{static_cast<std::int64_t>(
                  jitter * static_cast<double>(app.delay_for.count()))};
    // Everything must be released before the final audit.
    const Nanos latest = config_.plan.horizon +
                         Nanos{config_.drain.count() / 2};
    if (release > latest) release = latest;
    app.held.push_back(HeldView{view, queue, release});
    return;
  }
  engine_->done(queue, view);
}

void FaultHarness::app_poll(std::uint32_t queue) {
  AppState& app = apps_[queue];
  const Nanos now = scheduler_.now();
  if (spool_) {
    release_due_chunks(queue);
  } else {
    release_due(queue);
  }
  if (queue_open_[queue] && now >= app.stall_until) {
    if (spool_) {
      spool_poll(queue);
    } else {
      int budget = 32;
      while (budget-- > 0) {
        auto view = engine_->try_next(queue);
        if (!view) break;
        consume(queue, *view);
      }
    }
  }
  if (now < end_of_run_) {
    const Nanos jitter{
        static_cast<std::int64_t>(queue_rngs_[queue].next_below(1000))};
    scheduler_.schedule_after(kAppPollInterval + jitter,
                              [this, queue] { app_poll(queue); });
  }
}

void FaultHarness::spool_poll(std::uint32_t queue) {
  AppState& app = apps_[queue];
  store::SpoolShard& shard = spool_->shard(queue);
  const Nanos now = scheduler_.now();
  int budget = 4;  // chunks, not packets
  while (budget-- > 0) {
    // The blocking-policy handshake: a full shard pushes back here, the
    // chunks pile into the engine's capture queue, and the spool-backlog
    // probe folds them into the buddy-group offload decision.
    if (shard.policy() == store::BackpressurePolicy::kBlock &&
        !shard.accepting()) {
      break;
    }
    auto chunk = engine_->try_next_chunk(queue);
    if (!chunk) break;
    for (const engines::CaptureView& view : chunk->packets) {
      expected_seqs_.insert(view.seq);
    }
    // The per-packet holding faults hold whole chunks here.
    if (app.exhaust_until > now) {
      held_chunks_[queue].push_back(
          HeldChunk{std::move(*chunk), app.exhaust_until});
      continue;
    }
    if (app.delay_remaining > 0) {
      --app.delay_remaining;
      const double jitter = 0.5 + rng_.next_double();
      Nanos release =
          now + Nanos{static_cast<std::int64_t>(
                    jitter * static_cast<double>(app.delay_for.count()))};
      const Nanos latest = config_.plan.horizon +
                           Nanos{config_.drain.count() / 2};
      if (release > latest) release = latest;
      held_chunks_[queue].push_back(HeldChunk{std::move(*chunk), release});
      continue;
    }
    offer_chunk(queue, std::move(*chunk));
  }
}

void FaultHarness::offer_chunk(std::uint32_t queue,
                               engines::ChunkCaptureView&& chunk) {
  spool_->shard(queue).offer(
      std::move(chunk), [this, queue](const engines::ChunkCaptureView& done) {
        if (!queue_open_[queue]) ++late_releases_;
        engine_->done_chunk(queue, done);
      });
}

void FaultHarness::release_due_chunks(std::uint32_t queue) {
  auto& held = held_chunks_[queue];
  const Nanos now = scheduler_.now();
  for (std::size_t i = 0; i < held.size();) {
    if (held[i].release_at <= now) {
      offer_chunk(queue, std::move(held[i].chunk));
      held[i] = std::move(held.back());
      held.pop_back();
    } else {
      ++i;
    }
  }
}

void FaultHarness::close_queue(std::uint32_t queue, int retries) {
  if (!queue_open_[queue]) return;
  // Closing needs a quiesced ring: retry past in-flight DMA.
  if (nic_->rx_ring(queue).dma_in_flight() && retries > 0) {
    scheduler_.schedule_after(kDmaSettle, [this, queue, retries] {
      close_queue(queue, retries - 1);
    });
    return;
  }
  // Spooled chunks of this ring reference its pool cells: pull them out
  // of every shard queue (and our held lists) before the pool is torn
  // down.
  evict_ring_from_spool(queue);
  engine_->close(queue);
  queue_open_[queue] = false;
  ++reopens_;
  scheduler_.schedule_after(kReopenDelay,
                            [this, queue] { open_queue(queue); });
}

void FaultHarness::evict_ring_from_spool(std::uint32_t ring) {
  if (!spool_) return;
  for (std::uint32_t s = 0; s < spool_->num_shards(); ++s) {
    spool_->shard(s).evict_ring(ring);
  }
  // Held chunks of that ring dangle too once the pool is torn down:
  // release them now (the epoch is still current) and write off their
  // packets.
  for (std::uint32_t q = 0; q < held_chunks_.size(); ++q) {
    auto& held = held_chunks_[q];
    for (std::size_t i = 0; i < held.size();) {
      if (held[i].chunk.source_ring == ring) {
        for (const engines::CaptureView& view : held[i].chunk.packets) {
          expected_seqs_.erase(view.seq);
          ++spool_lost_;
        }
        engine_->done_chunk(q, held[i].chunk);
        held[i] = std::move(held.back());
        held.pop_back();
      } else {
        ++i;
      }
    }
  }
}

void FaultHarness::apply(const FaultEvent& event) {
  AppState& app = apps_[event.queue];
  const Nanos now = scheduler_.now();
  switch (event.kind) {
    case FaultKind::kDelayedRecycle:
    case FaultKind::kWithheldRecycle:
      app.delay_remaining += event.magnitude;
      app.delay_for = event.duration;
      break;
    case FaultKind::kAppStall:
      app.stall_until = std::max(app.stall_until, now + event.duration);
      break;
    case FaultKind::kTxBurst:
      app.tx_burst_remaining += event.magnitude;
      break;
    case FaultKind::kPoolExhaust:
      app.exhaust_until = std::max(app.exhaust_until, now + event.duration);
      break;
    case FaultKind::kTenantExhaust:
      // Every queue of the hit tenant withholds at once: the whole
      // tenant burns through its quota while its neighbours' budgets
      // must stay untouched (the per-tenant conservation audit checks).
      for (std::uint32_t q = 0; q < apps_.size(); ++q) {
        if (tenant_of(q) == tenant_of(event.queue)) {
          apps_[q].exhaust_until =
              std::max(apps_[q].exhaust_until, now + event.duration);
        }
      }
      break;
    case FaultKind::kTimeoutStorm: {
      // Sub-chunk bursts spaced past the partial-chunk timeout: each
      // one can only leave the ring via the rescue path.
      const Nanos gap = Nanos::from_micros(45);  // 1.5x the timeout
      for (std::uint32_t burst = 0; burst < event.magnitude; ++burst) {
        const std::uint32_t pkts = 1 + static_cast<std::uint32_t>(
            rng_.next_below(config_.cells_per_chunk - 1));
        const std::uint32_t queue = event.queue;
        scheduler_.schedule_after(
            Nanos{gap.count() * (burst + 1)}, [this, queue, pkts] {
              for (std::uint32_t p = 0; p < pkts; ++p) {
                nic_->receive(net::WirePacket::make(
                    scheduler_.now(), flows_[queue][0], 64,
                    apps_[queue].seq++));
              }
            });
      }
      break;
    }
    case FaultKind::kQueueReopen:
      if (!queue_open_[event.queue]) break;
      scheduler_.schedule_after(kDmaSettle, [this, queue = event.queue] {
        close_queue(queue, kCloseRetries);
      });
      break;
    case FaultKind::kSlowDisk:
      if (spool_) {
        spool_->shard(event.queue)
            .set_slow_disk(static_cast<double>(std::max(2u, event.magnitude)),
                           now + event.duration);
      }
      break;
    case FaultKind::kDiskFull:
      if (spool_) {
        spool_->shard(event.queue).set_disk_full(now + event.duration);
      }
      break;
  }
}

void FaultHarness::audit_tick() {
  for (std::uint32_t q = 0; q < queue_open_.size(); ++q) {
    // The conservation law only holds for an open ring: a closed one
    // intentionally strands app-held chunks behind the epoch bump.
    if (queue_open_[q]) auditor_.check_conservation(*engine_, q);
  }
  audit_tenants();
  if (scheduler_.now() < end_of_run_) {
    scheduler_.schedule_after(kCheckInterval, [this] { audit_tick(); });
  }
}

void FaultHarness::audit_tenants() {
  if (config_.plan.num_tenants <= 1) return;
  // Audited while every member queue is open: the census sums open
  // queues only, so a tenant mid-reopen would be checked on a subset.
  const auto& specs = engine_->tenants();
  for (std::uint32_t t = 0; t < specs.size(); ++t) {
    bool all_open = !specs[t].queues.empty();
    for (const std::uint32_t q : specs[t].queues) {
      if (q >= queue_open_.size() || !queue_open_[q]) all_open = false;
    }
    if (all_open) auditor_.check_tenant_conservation(*engine_, t);
  }
}

FaultRunResult FaultHarness::run() {
  end_of_run_ = config_.plan.horizon + config_.drain;

  for (std::uint32_t q = 0; q < config_.plan.num_queues; ++q) {
    open_queue(q);
    schedule_traffic(q, Nanos{static_cast<std::int64_t>(
                            rng_.next_below(
                                static_cast<std::uint64_t>(
                                    kMeanGap.count())))});
    scheduler_.schedule_at(Nanos::zero(), [this, q] { app_poll(q); });
  }
  for (const FaultEvent& event : plan_.events()) {
    scheduler_.schedule_at(event.at, [this, event] { apply(event); });
  }
  scheduler_.schedule_after(kCheckInterval, [this] { audit_tick(); });

  scheduler_.run_until(end_of_run_);

  // Straggler releases (clamped to before end_of_run_, but be safe),
  // then the final audit on a fully quiesced fabric.
  for (std::uint32_t q = 0; q < config_.plan.num_queues; ++q) {
    AppState& app = apps_[q];
    while (!app.held.empty()) {
      if (!queue_open_[q]) ++late_releases_;
      engine_->done(q, app.held.back().view);
      app.held.pop_back();
    }
    if (spool_) {
      auto& held = held_chunks_[q];
      while (!held.empty()) {
        offer_chunk(q, std::move(held.back().chunk));
        held.pop_back();
      }
    }
  }
  scheduler_.run_until(end_of_run_ + Nanos::from_millis(1));
  if (spool_) {
    drain_spool();
    spool_->close();
    // Reconcile counted shard losses (drop policies, ring evictions)
    // against the expectation set before the round-trip audit.
    for (std::uint32_t s = 0; s < spool_->num_shards(); ++s) {
      for (const std::uint64_t seq : spool_->shard(s).lost_seqs()) {
        if (expected_seqs_.erase(seq) > 0) ++spool_lost_;
      }
    }
  }
  for (std::uint32_t q = 0; q < queue_open_.size(); ++q) {
    if (queue_open_[q]) auditor_.check_conservation(*engine_, q);
  }
  audit_tenants();

  FaultRunResult result;
  result.seed = plan_.seed();
  result.auditor = auditor_.stats();
  result.forwarded = forwarded_;
  result.reopens = reopens_;
  result.late_releases = late_releases_;
  result.violations = auditor_.violations();
  result.queue_delivered.resize(config_.plan.num_queues, 0);
  result.tenant_delivered.resize(std::max(1u, config_.plan.num_tenants), 0);
  for (std::uint32_t q = 0; q < config_.plan.num_queues; ++q) {
    const std::uint64_t delivered = engine_->queue_stats(q).delivered;
    result.delivered += delivered;
    result.queue_delivered[q] = delivered;
    result.tenant_delivered[tenant_of(q)] += delivered;
  }
  if (spool_) {
    result.spool = verify_spool();
    // A dirty spool stays behind for inspection.
    if (!result.spool->clean()) remove_spool_dir_ = false;
  }
  return result;
}

void FaultHarness::drain_spool() {
  // Every queued write completes in bounded virtual time (disk-full
  // windows expire), so stepping the clock forward must converge.
  Nanos deadline = scheduler_.now();
  for (int i = 0; i < 10'000 && !spool_->drained(); ++i) {
    deadline += Nanos::from_micros(100);
    scheduler_.run_until(deadline);
  }
}

SpoolRunSummary FaultHarness::verify_spool() {
  SpoolRunSummary summary;
  summary.dir = spool_dir_;
  summary.packets_expected = expected_seqs_.size();
  summary.packets_lost = spool_lost_;
  const auto problem = [&summary](std::string message) {
    if (summary.problems.size() < 16) {
      summary.problems.push_back(std::move(message));
    }
  };
  if (!spool_->drained()) {
    ++summary.conservation_failures;
    problem("spool failed to drain within the settle window");
  }

  store::StoreReader reader(spool_dir_);
  summary.segments = reader.segments().size();
  std::unordered_set<std::uint64_t> seen;
  Nanos last = Nanos::zero();
  reader.read_merged({}, [&](const net::PcapngRecord& record,
                             std::uint32_t shard) {
    ++summary.packets_merged;
    if (record.timestamp < last) {
      ++summary.order_violations;
      problem("merged stream went backwards at shard " +
              std::to_string(shard) + ", ts " +
              std::to_string(record.timestamp.count()));
    }
    last = record.timestamp;
    if (!record.packet_id) {
      ++summary.conservation_failures;
      problem("spooled record without a packet id");
      return;
    }
    const std::uint64_t seq = *record.packet_id;
    if (expected_seqs_.count(seq) == 0) {
      ++summary.conservation_failures;
      problem("unexpected seq " + std::to_string(seq) + " in the spool");
    } else if (!seen.insert(seq).second) {
      ++summary.conservation_failures;
      problem("duplicate seq " + std::to_string(seq) + " in the spool");
    }
  });
  if (seen.size() != expected_seqs_.size()) {
    const std::uint64_t missing = expected_seqs_.size() - seen.size();
    summary.conservation_failures += missing;
    problem(std::to_string(missing) +
            " consumed packet(s) missing from the spool");
  }
  return summary;
}

SoakResult run_fault_soak(std::uint64_t first_seed, std::uint32_t count,
                          FaultHarnessConfig base) {
  SoakResult soak;
  for (std::uint32_t i = 0; i < count; ++i) {
    base.plan.seed = first_seed + i;
    FaultHarness harness{base};
    const FaultRunResult result = harness.run();
    ++soak.seeds_run;
    if (result.clean()) ++soak.seeds_clean;
    soak.total_violations += result.auditor.violations;
    soak.total_transitions += result.auditor.transitions;
    soak.total_conservation_checks += result.auditor.conservation_checks;
    soak.total_tenant_checks += result.auditor.tenant_checks;
    soak.total_delivered += result.delivered;
    soak.total_reopens += result.reopens;
    if (result.spool) {
      const SpoolRunSummary& spool = *result.spool;
      soak.total_spooled += spool.packets_merged;
      soak.total_spool_lost += spool.packets_lost;
      soak.total_spool_failures +=
          spool.order_violations + spool.conservation_failures;
    }
    if (!result.clean()) {
      std::string message = "(no message recorded)";
      if (!result.violations.empty()) {
        message = result.violations.front();
      } else if (result.spool && !result.spool->problems.empty()) {
        message = result.spool->problems.front();
      }
      soak.failures.push_back("seed " + std::to_string(result.seed) + ": " +
                              message);
    }
  }
  return soak;
}

}  // namespace wirecap::testing
