#include "core/wirecap_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wirecap::core {

WirecapEngine::WirecapEngine(sim::Scheduler& scheduler,
                             nic::MultiQueueNic& nic, WirecapConfig config,
                             sim::CostModel costs)
    : scheduler_(scheduler), nic_(nic), config_(config), costs_(costs) {
  if (config_.offload_threshold &&
      (*config_.offload_threshold <= 0.0 || *config_.offload_threshold > 1.0)) {
    throw std::invalid_argument("WirecapEngine: T must be in (0, 1]");
  }
  queues_.resize(nic_.config().num_rx_queues);
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    queues_[q].numa_node = q < config_.queue_numa_node.size()
                               ? config_.queue_numa_node[q]
                               : config_.nic_numa_node;
  }
}

void WirecapEngine::open(std::uint32_t queue, sim::SimCore& /*app_core*/) {
  QueueState& qs = queues_.at(queue);
  if (qs.open) return;
  qs.open = true;

  driver::WirecapDriverConfig driver_config;
  driver_config.cells_per_chunk = config_.cells_per_chunk;
  driver_config.chunk_count = config_.chunk_count;
  driver_config.partial_chunk_timeout = costs_.partial_chunk_timeout;
  // Pool placement follows the queue's NUMA node: the fresh pool is
  // allocated where the capture thread runs, so only NIC-to-pool DMA
  // distance shows up as a penalty.
  driver_config.numa_node = qs.numa_node;
  qs.driver = std::make_unique<driver::WirecapQueueDriver>(nic_, queue,
                                                           driver_config);

  // A dedicated core for this queue's capture thread, distinct from any
  // application core id.
  qs.capture_core = std::make_unique<sim::SimCore>(
      scheduler_, 1000 + nic_.nic_id() * 64 + queue);

  // Anything still sitting in the previous incarnation's work queues
  // belongs to a still-open buddy's pool (close() drained our own
  // chunks).  Send it home before the queue objects are replaced, or
  // the chunks would be destroyed while their pools still count them
  // as captured.
  const auto recycle_stale = [this](const driver::ChunkMeta& meta) {
    if (queues_[meta.ring_id].open) {
      static_cast<void>(queues_[meta.ring_id].driver->recycle(meta));
    }
  };
  if (qs.capture_ring) {
    driver::ChunkMeta meta;
    while (qs.capture_ring->try_pop(meta)) recycle_stale(meta);
  }
  if (qs.steal_inbox) {
    driver::ChunkMeta meta;
    while (qs.steal_inbox->try_claim(meta)) recycle_stale(meta);
  }
  if (qs.recycle_queue) {
    while (auto meta = qs.recycle_queue->try_pop()) recycle_stale(*meta);
  }

  // The SPSC ring carries only this queue's own chunks (buddies deposit
  // into the inbox instead), so R slots always suffice.
  qs.capture_ring =
      std::make_unique<SpscRing<driver::ChunkMeta>>(config_.chunk_count);
  qs.steal_inbox = std::make_unique<StealInbox<driver::ChunkMeta>>();
  qs.recycle_queue = std::make_unique<MpmcQueue<driver::ChunkMeta>>(
      config_.chunk_count);

  // Per-queue offload-policy state: distinct xorshift streams per queue
  // (SplitMix64-style spread of the queue id over the golden-ratio
  // seed; never zero, which xorshift would fix forever).
  qs.offload_rr = 0;
  qs.offload_rng = 0x9E3779B97F4A7C15ULL ^
                   (0xBF58476D1CE4E5B9ULL * (static_cast<std::uint64_t>(queue) + 1));

  if (pool_observer_) qs.driver->pool().set_observer(pool_observer_);
  // Fresh journey scratchpad for the fresh pool (stale stamps from a
  // previous incarnation must not leak into the new epoch's journeys).
  qs.journeys.assign(config_.chunk_count, telemetry::ChunkJourney{});
  qs.driver->open();
  // Late-opened queues publish like queues open at bind time
  // (bind_queue_telemetry is a no-op until bind_telemetry() runs).
  bind_queue_telemetry(queue);
  poll(queue);
}

void WirecapEngine::close(std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  if (!qs.open) return;
  qs.open = false;
  qs.data_callback = nullptr;

  // Drain the work-queue pair and `pending` back to the owning pools
  // while the old pool is still alive.  The ring, the recycle queue and
  // `pending` only ever hold this ring's chunks; the steal inbox may
  // also hold chunks buddies offloaded in, which go home to *their*
  // pools.
  const auto recycle_to_owner = [this](const driver::ChunkMeta& meta) {
    const Status status = queues_[meta.ring_id].driver->recycle(meta);
    if (!status.is_ok()) {
      throw std::logic_error("WirecapEngine: close-drain recycle failed");
    }
  };
  driver::ChunkMeta drained;
  while (qs.capture_ring->try_pop(drained)) recycle_to_owner(drained);
  while (qs.steal_inbox->try_claim(drained)) recycle_to_owner(drained);
  for (const driver::ChunkMeta& meta : qs.pending) recycle_to_owner(meta);
  qs.pending.clear();
  drop_current(qs);

  // Chunks this ring offloaded to buddies that are still queued (or
  // being read) over there reference the pool being torn down: pull
  // them back and recycle them before it disappears.  Offloads only
  // ever sit in buddies' steal inboxes (their SPSC rings carry nothing
  // but their own chunks).
  for (QueueState& other : queues_) {
    if (&other == &qs) continue;
    if (other.steal_inbox) {
      std::vector<driver::ChunkMeta> kept;
      driver::ChunkMeta meta;
      while (other.steal_inbox->try_claim(meta)) {
        if (meta.ring_id == queue) {
          recycle_to_owner(meta);
        } else {
          kept.push_back(meta);
        }
      }
      using Inbox = StealInbox<driver::ChunkMeta>;
      for (const driver::ChunkMeta& keep : kept) {
        if (other.steal_inbox->try_deposit(keep) != Inbox::Deposit::kOk) {
          throw std::logic_error("WirecapEngine: close sweep lost a chunk");
        }
      }
    }
    if (other.current && other.current->meta.ring_id == queue) {
      drop_current(other);
    }
  }

  // Last: the recycle queue, which the drop_current() calls above may
  // have fed (a fully-released current chunk goes home via deref).
  while (auto meta = qs.recycle_queue->try_pop()) recycle_to_owner(*meta);

  // Chunks still held by application threads (outstanding_) cannot be
  // reclaimed synchronously; bumping the epoch makes their final
  // done()/TX completion drop the stale metadata instead of recycling
  // it into whatever pool a reopen creates.  They stay captured in the
  // torn-down pool, which no tenant budget counts: charges sum only
  // open queues' pools.
  ++qs.epoch;
  qs.driver->close();
}

void WirecapEngine::drop_current(QueueState& qs) {
  if (!qs.current) return;
  const driver::ChunkMeta meta = qs.current->meta;
  const std::uint32_t undelivered = meta.pkt_count - qs.current->cursor;
  qs.current.reset();
  const std::uint64_t key = chunk_key(meta.ring_id, meta.chunk_id,
                                      queues_[meta.ring_id].epoch);
  for (std::uint32_t i = 0; i < undelivered; ++i) deref(key);
}

engines::TenantId WirecapEngine::register_tenant(
    const engines::TenantSpec& spec) {
  // Grouped queues must be open (out-of-range ids surface as
  // std::out_of_range from at()).
  for (const std::uint32_t q : spec.queues) {
    if (!queues_.at(q).open) {
      throw std::logic_error("WirecapEngine: buddy queue not open");
    }
  }
  const engines::TenantId id = engines::CaptureEngine::register_tenant(spec);
  rebuild_tenant_wiring();
  bind_tenant_telemetry(id);
  return id;
}

void WirecapEngine::rebuild_tenant_wiring() {
  const std::vector<engines::TenantSpec>& specs = tenants();
  quota_stalls_.resize(specs.size());
  // Clear every queue's membership, then wire each spec.  Queues
  // released from a tenant (upsert shrank its group, or another spec
  // claimed them) end up with no tenant and no buddies.
  for (QueueState& qs : queues_) {
    qs.tenant = engines::kNoTenant;
    qs.buddies.clear();
  }
  for (engines::TenantId id = 0; id < specs.size(); ++id) {
    const engines::TenantSpec& spec = specs[id];
    for (const std::uint32_t q : spec.queues) {
      QueueState& qs = queues_[q];
      qs.tenant = id;
      for (const std::uint32_t other : spec.queues) {
        if (other != q) qs.buddies.push_back(other);
      }
    }
  }
}

engines::TenantAccount WirecapEngine::tenant_account(
    engines::TenantId tenant) const {
  return engines::TenantAccount{tenants().at(tenant).chunk_quota,
                                tenant_charged(tenant),
                                quota_stalls_.at(tenant)};
}

std::uint64_t WirecapEngine::tenant_charged(engines::TenantId tenant) const {
  std::uint64_t charged = 0;
  for (const std::uint32_t q : tenants().at(tenant).queues) {
    const QueueState& qs = queues_[q];
    if (qs.open) charged += qs.driver->pool().captured_chunks();
  }
  return charged;
}

std::size_t WirecapEngine::quota_headroom(const QueueState& qs) const {
  if (qs.tenant == engines::kNoTenant) {
    return std::numeric_limits<std::size_t>::max();
  }
  const std::uint32_t quota = tenants()[qs.tenant].chunk_quota;
  if (quota == 0) return std::numeric_limits<std::size_t>::max();
  const std::uint64_t charged = tenant_charged(qs.tenant);
  return charged >= quota ? 0 : static_cast<std::size_t>(quota - charged);
}

void WirecapEngine::poll(std::uint32_t queue) {
  QueueState& qs = queues_[queue];
  if (!qs.open) return;
  ++qs.extra.polls;
  Nanos cost = Nanos::zero();

  // 3. Recycle used chunks returned by application threads — batched:
  // one free-list lock round-trip to drain, one recycle_batch ioctl
  // validating every chunk with a single ring replenish at the end.
  recycle_scratch_.clear();
  while (qs.recycle_queue->try_pop_batch(recycle_scratch_,
                                         config_.chunk_count) > 0) {
  }
  if (!recycle_scratch_.empty()) {
    const std::size_t accepted = qs.driver->recycle_batch(recycle_scratch_);
    if (accepted != recycle_scratch_.size()) {
      throw std::logic_error("WirecapEngine: recycle of own chunk failed");
    }
    cost += Nanos{static_cast<std::int64_t>(accepted) *
                  costs_.recycle_chunk_cost.count()};
  }

  // 1. Capture filled chunks from the ring (zero-copy; the timeout path
  // copies a partial chunk and reports how many packets it moved).  The
  // tenant quota throttles here, after the recycle drain freed budget:
  // a tenant at its cap stops *capturing* — its rings back up and
  // eventually drop at the NIC — without drawing down any other
  // tenant's pools (fairness by construction).
  std::vector<driver::ChunkMeta>& captured = capture_scratch_;
  captured.clear();
  std::uint32_t copied = 0;
  const std::size_t headroom = quota_headroom(qs);
  if (headroom == 0) {
    ++quota_stalls_[qs.tenant];
  } else {
    copied = qs.driver->capture(
        scheduler_.now(),
        std::min(config_.max_chunks_per_capture, headroom), captured);
  }
  cost += Nanos{static_cast<std::int64_t>(copied) *
                costs_.partial_copy_cost.count()};
  cost += Nanos{static_cast<std::int64_t>(captured.size()) *
                costs_.capture_chunk_cost.count()};
  if (qs.numa_node != config_.nic_numa_node) {
    // Remote-socket capture: the chunk's descriptors and cell headers
    // are read across the interconnect (pool lives with this thread,
    // the NIC DMA'd into it from the other node).
    cost += Nanos{static_cast<std::int64_t>(captured.size()) *
                  costs_.numa_remote_capture_cost.count()};
  }

  // Arrival + capture stamps.  capture() produces either full chunks
  // (copied == 0) or exactly one rescue chunk (copied > 0), so the flag
  // applies to every meta of this round.
  if (latency_ && latency_->enabled()) [[unlikely]] {
    for (const driver::ChunkMeta& meta : captured) {
      journey_capture(meta, copied > 0);
    }
  }

  // A poll that moved data is a unit of capture-thread work in the
  // trace; idle polls are omitted to keep the ring for the useful ones.
  if (copied > 0 || !captured.empty()) {
    WIRECAP_TRACE(tracer_,
                  complete("capture.poll", "engine", scheduler_.now(), cost,
                           queue, "chunks", captured.size(), "copied_pkts",
                           copied));
  }

  // Park-and-retry keeps ordering: anything parked earlier goes first.
  // dispatch() may park again, so the parked chunks are moved out of
  // `pending` before any is retried.
  if (!qs.pending.empty()) {
    std::deque<driver::ChunkMeta> parked;
    parked.swap(qs.pending);
    for (const driver::ChunkMeta& meta : parked) cost += dispatch(queue, meta);
  }
  for (const driver::ChunkMeta& meta : captured) cost += dispatch(queue, meta);

  const bool had_work = copied > 0 || !captured.empty();
  // The capture thread is a loop on its core: it pays for the work it
  // just did, then either continues immediately (data pending) or
  // blocks with a timeout (the poll interval).
  qs.capture_core->submit(sim::WorkPriority::kUser, cost, [this, queue,
                                                           had_work] {
    QueueState& state = queues_[queue];
    if (!state.open) return;
    if (had_work) {
      poll(queue);
    } else {
      scheduler_.schedule_after(costs_.capture_poll_interval,
                                [this, queue] { poll(queue); });
    }
  });
}

Nanos WirecapEngine::dispatch(std::uint32_t queue,
                              const driver::ChunkMeta& meta) {
  QueueState& qs = queues_[queue];
  Nanos handoff_cost = costs_.lockfree_handoff_cost;
  std::uint32_t target = queue;

  // A queue's load toward the threshold T is its capture-queue depth
  // plus any registered spool backlog: chunks the disk shard has
  // accepted but not yet written are work the consumer side still owes,
  // so a slow disk pushes this queue over T (and makes it a poor
  // offload target) exactly like a slow application would.
  const auto effective_load = [this](std::uint32_t q) -> std::size_t {
    const QueueState& s = queues_[q];
    std::size_t load = capture_depth(s);
    if (s.spool_backlog) load += s.spool_backlog();
    return load;
  };

  if (config_.offload_threshold && !qs.buddies.empty()) {
    // One observation of the home load drives both the threshold test
    // and the keep-home compare below.  The load is volatile (spool
    // probes, concurrent consumers): re-reading it for the compare
    // could judge against a different value than the one that tripped
    // T, offloading when home already drained — or never offloading at
    // all when the probe oscillates.
    const std::size_t home_load = effective_load(queue);
    const double fill = static_cast<double>(home_load) /
                        static_cast<double>(config_.chunk_count);
    if (fill > *config_.offload_threshold) {
      // Long-term load imbalance indicator tripped: pick a buddy per the
      // configured policy (the paper's is least-busy).
      switch (config_.offload_policy) {
        case OffloadPolicy::kLeastBusy: {
          std::size_t best_len = std::numeric_limits<std::size_t>::max();
          for (const std::uint32_t buddy : qs.buddies) {
            if (!queues_[buddy].open) continue;
            const std::size_t len = effective_load(buddy);
            if (len < best_len) {
              best_len = len;
              target = buddy;
            }
          }
          // Only offload to somewhere actually less busy.
          if (best_len >= home_load) target = queue;
          break;
        }
        case OffloadPolicy::kRandomBuddy: {
          // Per-queue xorshift: deterministic, independent of workload
          // randomness and of every other queue's draws.
          qs.offload_rng ^= qs.offload_rng << 13;
          qs.offload_rng ^= qs.offload_rng >> 7;
          qs.offload_rng ^= qs.offload_rng << 17;
          target = qs.buddies[qs.offload_rng % qs.buddies.size()];
          break;
        }
        case OffloadPolicy::kRoundRobin:
          target = qs.buddies[qs.offload_rr++ % qs.buddies.size()];
          break;
      }
      // A buddy that closed after the group was bound still sits in the
      // buddy list; its capture queue would be destroyed on reopen with
      // our chunk inside, leaking it from the engine's accounting.
      if (!queues_[target].open) {
        if (target != queue) ++qs.extra.handoff_fallbacks;
        target = queue;
      }
    }
  }

  // Remote placement never blocks and never parks: a steal deposit
  // either lands the chunk or the loser falls home in one step.  Only
  // the home queue may park a chunk in `pending` — backpressure there
  // is real (the one bound consumer is behind), whereas a full or
  // contended buddy inbox is not a reason to hold the chunk hostage.
  if (target != queue) {
    using Inbox = StealInbox<driver::ChunkMeta>;
    QueueState& ts = queues_[target];
    switch (ts.steal_inbox->try_deposit(meta)) {
      case Inbox::Deposit::kOk:
        ++ts.extra.handoff_steals;
        break;
      case Inbox::Deposit::kContended:
        // Lost the CAS race against another depositor mid-slot: the
        // loser falls home rather than spinning on the buddy.
        ++qs.extra.handoff_contended;
        [[fallthrough]];
      case Inbox::Deposit::kFull:
        ++qs.extra.handoff_fallbacks;
        target = queue;
        break;
    }
  }

  if (target == queue) {
    const PushOutcome outcome = qs.capture_ring->try_push(meta);
    if (!outcome.ok()) {
      // Nowhere to put it: hold the chunk; backpressure will show up as
      // pool exhaustion and, eventually, capture drops at the NIC.
      qs.pending.push_back(meta);
      qs.extra.pending_high_water =
          std::max(qs.extra.pending_high_water,
                   static_cast<std::uint64_t>(qs.pending.size()));
      return handoff_cost;
    }
    // High-water from the depth the push itself observed — a second
    // size() read can race a concurrent consumer and miss the peak this
    // push created.  (Steal deposits have no ordered depth; the owner's
    // drain and the sampler cover the inbox's ≤8 slots.)
    qs.extra.capture_queue_high_water =
        std::max(qs.extra.capture_queue_high_water,
                 static_cast<std::uint64_t>(outcome.depth));
  }

  if (latency_ && latency_->enabled()) [[unlikely]] {
    journey_enqueue(meta, target != queue);
  }
  WIRECAP_TRACE(tracer_,
                instant("chunk.enqueue", "engine", scheduler_.now(), target,
                        "chunk", meta.chunk_id, "ring", meta.ring_id));
  if (target != queue) {
    ++qs.stats.chunks_offloaded_out;
    ++queues_[target].stats.chunks_offloaded_in;
    if (queues_[target].numa_node != qs.numa_node) {
      // Cross-socket offload: the enqueue and the consumer's reads
      // bounce cache lines over the interconnect.
      ++qs.extra.numa_remote_handoffs;
      handoff_cost += costs_.numa_remote_handoff_cost;
    }
    // The Figure 11 mechanism, event by event: which queue shed which
    // chunk to which buddy.
    WIRECAP_TRACE(tracer_,
                  instant("chunk.offload", "engine", scheduler_.now(), queue,
                          "to_queue", target, "chunk", meta.chunk_id));
  }
  // The consumer is poll-driven: kicking it is a plain call in virtual
  // time.
  QueueState& ts = queues_[target];
  if (ts.data_callback) ts.data_callback();
  return handoff_cost;
}

std::optional<driver::ChunkMeta> WirecapEngine::pop_capture(QueueState& qs) {
  // Own traffic first (the SPSC fast path), then offloads buddies
  // deposited: claiming a ready slot is the consumer half of the
  // work-stealing handoff.
  driver::ChunkMeta meta;
  if (qs.capture_ring->try_pop(meta) || qs.steal_inbox->try_claim(meta)) {
    return meta;
  }
  return std::nullopt;
}

std::size_t WirecapEngine::capture_depth(const QueueState& qs) const {
  if (!qs.capture_ring) return 0;
  return qs.capture_ring->size() + qs.steal_inbox->size_approx();
}

std::vector<driver::ChunkMeta> WirecapEngine::capture_metas(
    const QueueState& qs) const {
  if (!qs.capture_ring) return {};
  std::vector<driver::ChunkMeta> metas = qs.capture_ring->snapshot();
  for (const driver::ChunkMeta& meta : qs.steal_inbox->snapshot()) {
    metas.push_back(meta);
  }
  return metas;
}

bool WirecapEngine::acquire_chunk(std::uint32_t queue, QueueState& qs) {
  while (auto meta = pop_capture(qs)) {
    if (meta->pkt_count == 0) {
      // Defensive: an empty capture (nothing to deliver) goes straight
      // home rather than minting a zero-packet view.
      static_cast<void>(queues_[meta->ring_id].driver->recycle(*meta));
      continue;
    }
    qs.current = CurrentChunk{*meta, 0};
    const std::uint64_t epoch = queues_[meta->ring_id].epoch;
    outstanding_[chunk_key(meta->ring_id, meta->chunk_id, epoch)] =
        Outstanding{*meta, meta->pkt_count, epoch};
    if (latency_ && latency_->enabled()) [[unlikely]] {
      journey_dequeue(*meta, queue);
    }
    // Application-side dequeue of one chunk's worth of packets.
    WIRECAP_TRACE(tracer_,
                  instant("chunk.dequeue", "app", scheduler_.now(), queue,
                          "chunk", meta->chunk_id, "pkts", meta->pkt_count));
    return true;
  }
  return false;
}

void WirecapEngine::serve_views(QueueState& qs,
                                std::span<engines::CaptureView> views) {
  CurrentChunk& current = *qs.current;
  const driver::ChunkMeta meta = current.meta;
  const std::uint64_t epoch = queues_[meta.ring_id].epoch;
  driver::RingBufferPool& pool = queues_[meta.ring_id].driver->pool();
  const auto take = static_cast<std::uint32_t>(views.size());
  // Resolve the chunk once — one bounds check, two base pointers — then
  // fill views by plain indexing instead of two checked pool calls per
  // cell.  This is the delivery half of the batch path's amortization.
  const std::span<std::byte> bytes = pool.chunk_bytes(meta.chunk_id);
  const std::span<const driver::CellInfo> cells =
      pool.chunk_cells(meta.chunk_id);
  for (std::uint32_t i = 0; i < take; ++i) {
    const std::uint32_t cell_index = meta.first_cell + current.cursor + i;
    const driver::CellInfo& info = cells[cell_index];
    engines::CaptureView& view = views[i];
    view.bytes = bytes.subspan(
        static_cast<std::size_t>(cell_index) * nic::kMaterializedBytes,
        info.length);
    view.wire_len = info.wire_length;
    view.timestamp = Nanos{info.timestamp_ns};
    view.seq = info.seq;
    view.handle = make_handle(meta.ring_id, epoch, meta.chunk_id, cell_index);
  }
  current.cursor += take;
  if (current.cursor == meta.pkt_count) qs.current.reset();
  qs.stats.delivered += take;  // one accounting update per call
}

std::optional<engines::CaptureView> WirecapEngine::try_next(
    std::uint32_t queue) {
  QueueState& qs = queues_.at(queue);
  if (!qs.open || (!qs.current && !acquire_chunk(queue, qs))) {
    return std::nullopt;
  }
  engines::CaptureView view;
  serve_views(qs, {&view, 1});
  return view;
}

std::optional<engines::ChunkCaptureView> WirecapEngine::try_next_chunk(
    std::uint32_t queue, std::size_t /*max_packets*/) {
  QueueState& qs = queues_.at(queue);
  if (!qs.open || (!qs.current && !acquire_chunk(queue, qs))) {
    return std::nullopt;
  }
  // Whatever try_next()/try_next_batch() left unread of the current
  // chunk, or the whole freshly dequeued one.
  engines::ChunkCaptureView chunk;
  chunk.source_ring = qs.current->meta.ring_id;
  chunk.packets.resize(qs.current->meta.pkt_count - qs.current->cursor);
  serve_views(qs, chunk.packets);
  return chunk;
}

std::size_t WirecapEngine::try_next_batch(std::uint32_t queue,
                                          std::size_t max_packets,
                                          engines::PacketBatch& batch) {
  batch.clear();
  batch.source_ring = queue;
  QueueState& qs = queues_.at(queue);
  if (!qs.open || max_packets == 0) return 0;
  if (!qs.current && !acquire_chunk(queue, qs)) return 0;

  // A batch never spans chunks (chunk == batch when max_packets >= M):
  // every view shares one chunk key, so done_batch() derefs once.
  const CurrentChunk& current = *qs.current;
  const std::uint32_t take = std::min(
      static_cast<std::uint32_t>(std::min<std::size_t>(
          max_packets, std::numeric_limits<std::uint32_t>::max())),
      current.meta.pkt_count - current.cursor);
  batch.source_ring = current.meta.ring_id;
  batch.views.resize(take);
  serve_views(qs, batch.views);
  // One ref covers the whole batch: a batch never spans chunks, so any
  // view's handle resolves to the one chunk key at release time.
  batch.refs.push_back(engines::BatchRef{batch.views[0].handle, take});
  return take;
}

void WirecapEngine::release_ref(std::uint32_t /*queue*/, std::uint64_t handle,
                                std::uint32_t count) {
  deref_n(handle_key(handle), count);
}

void WirecapEngine::add_batch_shares(std::uint32_t /*queue*/,
                                     const engines::PacketBatch& batch,
                                     std::uint32_t extra) {
  if (extra == 0) return;
  for (const engines::BatchRef& ref : batch.refs) {
    if (ref.packets == 0) continue;
    const auto it = outstanding_.find(handle_key(ref.handle));
    if (it == outstanding_.end()) {
      throw std::logic_error("WirecapEngine: shares on unknown chunk");
    }
    Outstanding& entry = it->second;
    entry.remaining += ref.packets * extra;
    entry.shares += extra;
    // Mirror the grant into the kernel's share count so a buggy early
    // recycle of a fanned-out chunk is refused at the pool boundary.
    QueueState& owner = queues_[entry.meta.ring_id];
    if (entry.epoch == owner.epoch) {
      const Status status =
          owner.driver->pool().add_shares(entry.meta.chunk_id, extra);
      if (!status.is_ok()) {
        throw std::logic_error("WirecapEngine: pool rejected share grant");
      }
    }
  }
}

void WirecapEngine::deref_n(std::uint64_t key, std::uint32_t count) {
  if (count == 0) return;
  const auto it = outstanding_.find(key);
  if (it == outstanding_.end()) {
    throw std::logic_error("WirecapEngine: release of unknown chunk");
  }
  if (it->second.remaining < count) {
    throw std::logic_error("WirecapEngine: over-release of chunk");
  }
  it->second.remaining -= count;
  if (it->second.remaining == 0) {
    const driver::ChunkMeta meta = it->second.meta;
    const std::uint64_t epoch = it->second.epoch;
    const std::uint32_t shares = it->second.shares;
    outstanding_.erase(it);
    QueueState& owner = queues_[meta.ring_id];
    if (epoch != owner.epoch) {
      // The owning queue closed since this chunk was dequeued; its pool
      // is gone (or about to be).  Dropping the metadata is the correct
      // end of life — recycling it would corrupt a reopened pool.
      return;
    }
    if (shares != 0) {
      // Every fan-out share has been released (that is what remaining
      // reaching zero means); clear the kernel-side count so the
      // recycle below passes its shares-outstanding check.
      const Status status =
          owner.driver->pool().release_shares(meta.chunk_id, shares);
      if (!status.is_ok()) {
        throw std::logic_error("WirecapEngine: pool share release failed");
      }
    }
    if (latency_ && latency_->enabled()) [[unlikely]] {
      journey_release(meta);
    }
    // The chunk goes home: recycling happens on the pool that owns it,
    // regardless of which application thread processed it.
    if (!owner.recycle_queue->try_push(meta)) {
      throw std::logic_error("WirecapEngine: recycle queue overflow");
    }
  }
}

void WirecapEngine::done(std::uint32_t /*queue*/,
                         const engines::CaptureView& view) {
  deref(handle_key(view.handle));
}

// --- chunk-journey stamping (callers gate on latency_->enabled()) ---

void WirecapEngine::journey_capture(const driver::ChunkMeta& meta,
                                    bool rescued) {
  QueueState& owner = queues_[meta.ring_id];
  if (meta.chunk_id >= owner.journeys.size()) return;
  telemetry::ChunkJourney& j = owner.journeys[meta.chunk_id];
  j = telemetry::ChunkJourney{};
  j.ring = meta.ring_id;
  j.chunk = meta.chunk_id;
  j.pkt_count = meta.pkt_count;
  j.rescued = rescued;
  j.arrival_ns = owner.driver->chunk_arrival(meta).count();
  j.captured_ns = scheduler_.now().count();
}

void WirecapEngine::journey_enqueue(const driver::ChunkMeta& meta,
                                    bool stolen) {
  QueueState& owner = queues_[meta.ring_id];
  if (meta.chunk_id >= owner.journeys.size()) return;
  telemetry::ChunkJourney& j = owner.journeys[meta.chunk_id];
  // Only the first successful enqueue counts (close-time sweeps re-push
  // survivors through raw queue operations, never through here).
  if (j.arrival_ns < 0 || j.enqueued_ns >= 0) return;
  j.enqueued_ns = scheduler_.now().count();
  j.stolen = stolen;
}

void WirecapEngine::journey_dequeue(const driver::ChunkMeta& meta,
                                    std::uint32_t queue) {
  QueueState& owner = queues_[meta.ring_id];
  if (meta.chunk_id >= owner.journeys.size()) return;
  telemetry::ChunkJourney& j = owner.journeys[meta.chunk_id];
  if (j.arrival_ns < 0 || j.dequeued_ns >= 0) return;
  j.dequeued_ns = scheduler_.now().count();
  j.dequeue_queue = queue;
}

void WirecapEngine::journey_release(const driver::ChunkMeta& meta) {
  QueueState& owner = queues_[meta.ring_id];
  if (meta.chunk_id >= owner.journeys.size()) return;
  telemetry::ChunkJourney& j = owner.journeys[meta.chunk_id];
  if (j.arrival_ns < 0) return;
  j.released_ns = scheduler_.now().count();
  latency_->record_journey(j);
  WIRECAP_TRACE(tracer_, instant("chunk.release", "engine", scheduler_.now(),
                                 meta.ring_id, "chunk", meta.chunk_id));
  if (j.complete()) {
    // One self-contained span per chunk: ts/dur give the end-to-end
    // window, the args carry the capture and queue-wait shares (deliver
    // = dur - capture - queue_wait), so offline tools fold journeys
    // into stage percentiles without any event correlation.
    WIRECAP_TRACE(tracer_,
                  complete("chunk.journey", "latency", Nanos{j.arrival_ns},
                           Nanos{j.e2e_ns()}, meta.ring_id, "capture",
                           static_cast<std::uint64_t>(j.capture_ns()),
                           "queue_wait",
                           static_cast<std::uint64_t>(j.queue_wait_ns())));
  }
  j = telemetry::ChunkJourney{};
}

bool WirecapEngine::forward(std::uint32_t /*queue*/,
                            const engines::CaptureView& view,
                            nic::MultiQueueNic& out_nic,
                            std::uint32_t tx_queue) {
  // Zero-copy forwarding: attach the pool cell to a transmit descriptor;
  // the chunk cannot be recycled until the frame has left the wire.
  const std::uint64_t key = handle_key(view.handle);
  nic::TxRequest request;
  request.frame = view.bytes;
  request.wire_length = view.wire_len;
  request.seq = view.seq;
  request.on_complete = [this, key] { deref(key); };
  if (!out_nic.transmit(tx_queue, std::move(request))) {
    deref(key);  // TX ring full: packet dropped, buffer released
    return false;
  }
  return true;
}

void WirecapEngine::set_data_callback(std::uint32_t queue,
                                      std::function<void()> fn) {
  queues_.at(queue).data_callback = std::move(fn);
}

void WirecapEngine::set_spool_backlog_probe(std::uint32_t queue,
                                            std::function<std::size_t()> probe) {
  queues_.at(queue).spool_backlog = std::move(probe);
}

engines::EngineQueueStats WirecapEngine::queue_stats(
    std::uint32_t queue) const {
  engines::EngineQueueStats stats = queues_.at(queue).stats;
  if (queues_[queue].driver) {
    stats.copies += queues_[queue].driver->stats().packets_copied;
  }
  return stats;
}

const driver::WirecapDriverStats& WirecapEngine::driver_stats(
    std::uint32_t queue) const {
  return queues_.at(queue).driver->stats();
}

const WirecapQueueExtraStats& WirecapEngine::extra_stats(
    std::uint32_t queue) const {
  return queues_.at(queue).extra;
}

const driver::RingBufferPool& WirecapEngine::pool(std::uint32_t queue) const {
  return queues_.at(queue).driver->pool();
}

double WirecapEngine::capture_core_utilization(std::uint32_t queue) const {
  const QueueState& qs = queues_.at(queue);
  return qs.capture_core ? qs.capture_core->utilization() : 0.0;
}

void WirecapEngine::bind_telemetry(telemetry::Telemetry& telemetry,
                                   const std::string& prefix,
                                   std::uint32_t num_queues) {
  engines::CaptureEngine::bind_telemetry(telemetry, prefix, num_queues);
  telemetry_ = &telemetry;
  telemetry_prefix_ = prefix;
  latency_ = &telemetry.latency;
  for (std::uint32_t q = 0; q < num_queues && q < queues_.size(); ++q) {
    if (queues_[q].open) bind_queue_telemetry(q);
  }
  // Tenants registered before bind_telemetry() publish like tenants
  // registered after (register_tenant binds the late ones).
  for (engines::TenantId id = 0; id < tenants().size(); ++id) {
    bind_tenant_telemetry(id);
  }
  telemetry.probes.push_back([this](Nanos now) { sample_depths(now); });
}

void WirecapEngine::bind_tenant_telemetry(engines::TenantId tenant) {
  if (!telemetry_) return;
  const std::string tp =
      telemetry_prefix_ + ".tenant." + std::to_string(tenant) + ".";
  telemetry::MetricRegistry& registry = telemetry_->registry;
  // Upserting a tenant re-enters here; the existing bindings already
  // resolve through live engine state, so rebinding would only churn.
  if (registry.contains(tp + "charged")) return;
  registry.bind_gauge(tp + "charged", [this, tenant] {
    return static_cast<double>(tenant_charged(tenant));
  });
  registry.bind_gauge(tp + "quota", [this, tenant] {
    return static_cast<double>(tenants()[tenant].chunk_quota);
  });
  registry.bind_counter(tp + "quota_stalls",
                        [this, tenant] { return quota_stalls_[tenant]; });
  registry.bind_gauge(tp + "queues", [this, tenant] {
    return tenant < tenants().size()
               ? static_cast<double>(tenants()[tenant].queues.size())
               : 0.0;
  });
  registry.bind_counter(tp + "delivered", [this, tenant] {
    std::uint64_t total = 0;
    if (tenant < tenants().size()) {
      for (const std::uint32_t q : tenants()[tenant].queues) {
        if (q < queues_.size()) total += queues_[q].stats.delivered;
      }
    }
    return total;
  });
}

void WirecapEngine::bind_queue_telemetry(std::uint32_t queue) {
  if (!telemetry_) return;
  QueueState& qs = queues_[queue];
  const std::string qp = telemetry_prefix_ + ".q" + std::to_string(queue) + ".";
  telemetry::MetricRegistry& registry = telemetry_->registry;
  // Every binding resolves through the QueueState at sample time: a
  // close()/open() cycle replaces the driver and queues, and bindings
  // made against the old instances would dangle.  Liveness gauges also
  // test qs.open so a closed queue reads 0 (tombstoned) instead of the
  // last state of its dead driver/queues until a reopen revives them.
  registry.bind_gauge(qp + "capture_queue.depth", [this, &qs] {
    return qs.open ? static_cast<double>(capture_depth(qs)) : 0.0;
  });
  registry.bind_gauge(qp + "pending.depth", [&qs] {
    return qs.open ? static_cast<double>(qs.pending.size()) : 0.0;
  });
  registry.bind_gauge(qp + "pool.free_chunks", [&qs] {
    return qs.open && qs.driver
               ? static_cast<double>(qs.driver->pool().free_chunks())
               : 0.0;
  });
  registry.bind_gauge(qp + "capture_core.utilization", [&qs] {
    return qs.open && qs.capture_core ? qs.capture_core->utilization() : 0.0;
  });
  registry.bind_gauge(qp + "spool_backlog", [&qs] {
    return qs.spool_backlog ? static_cast<double>(qs.spool_backlog()) : 0.0;
  });
  registry.bind_counter(qp + "capture_queue.high_water", [&qs] {
    return qs.extra.capture_queue_high_water;
  });
  registry.bind_counter(qp + "pending.high_water", [&qs] {
    return qs.extra.pending_high_water;
  });
  registry.bind_counter(qp + "polls", [&qs] { return qs.extra.polls; });
  // Work-stealing handoff outcomes.
  registry.bind_counter(qp + "handoff.steals",
                        [&qs] { return qs.extra.handoff_steals; });
  registry.bind_counter(qp + "handoff.contended",
                        [&qs] { return qs.extra.handoff_contended; });
  registry.bind_counter(qp + "handoff.fallbacks",
                        [&qs] { return qs.extra.handoff_fallbacks; });
  registry.bind_counter(qp + "handoff.numa_remote",
                        [&qs] { return qs.extra.numa_remote_handoffs; });
  registry.bind_gauge(qp + "numa_node", [&qs] {
    return static_cast<double>(qs.numa_node);
  });
  const auto driver_counter = [&registry, &qs, &qp](
                                  const char* name,
                                  std::uint64_t driver::WirecapDriverStats::*
                                      field) {
    registry.bind_counter(qp + name, [&qs, field] {
      return qs.driver ? qs.driver->stats().*field : 0;
    });
  };
  driver_counter("driver.chunks_captured",
                 &driver::WirecapDriverStats::chunks_captured);
  driver_counter("driver.partial_rescues",
                 &driver::WirecapDriverStats::partial_rescues);
  driver_counter("driver.packets_copied",
                 &driver::WirecapDriverStats::packets_copied);
  driver_counter("driver.packets_captured",
                 &driver::WirecapDriverStats::packets_captured);
  driver_counter("driver.chunks_recycled",
                 &driver::WirecapDriverStats::chunks_recycled);
  driver_counter("driver.recycle_rejects",
                 &driver::WirecapDriverStats::recycle_rejects);
  driver_counter("driver.attach_failures",
                 &driver::WirecapDriverStats::attach_failures);
  // Per-stage latency percentiles, attributed to the owning ring.  Only
  // bound when the harness enabled the LatencyTracker before binding the
  // engine: 16 extra gauges per queue would otherwise flood small trace
  // rings with sampler counter events in runs that never record a
  // journey.
  if (telemetry_->latency.enabled()) {
    using Stage = telemetry::LatencyTracker::Stage;
    static constexpr struct {
      const char* name;
      Stage stage;
    } kStages[] = {{"e2e", Stage::kE2e},
                   {"capture", Stage::kCapture},
                   {"queue_wait", Stage::kQueueWait},
                   {"deliver", Stage::kDeliver}};
    static constexpr struct {
      const char* name;
      double q;
    } kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};
    for (const auto& stage : kStages) {
      for (const auto& quantile : kQuantiles) {
        registry.bind_gauge(
            qp + "latency." + stage.name + "." + quantile.name,
            [this, queue, stage = stage.stage, q = quantile.q] {
              return telemetry_->latency.stage_quantile(queue, stage, q);
            });
      }
    }
  }
  if (qs.driver) {
    qs.driver->set_tracer(&telemetry_->tracer,
                          [this] { return scheduler_.now(); });
  }
}

void WirecapEngine::set_pool_observer(driver::PoolObserver* observer) {
  pool_observer_ = observer;
  for (QueueState& qs : queues_) {
    if (qs.driver) qs.driver->pool().set_observer(observer);
  }
}

WirecapEngine::CapturedCensus WirecapEngine::captured_census(
    std::uint32_t ring) const {
  CapturedCensus census;
  const QueueState& owner = queues_.at(ring);
  for (const QueueState& qs : queues_) {
    for (const driver::ChunkMeta& meta : capture_metas(qs)) {
      if (meta.ring_id == ring) ++census.in_capture_queues;
    }
    for (const driver::ChunkMeta& meta : qs.pending) {
      if (meta.ring_id == ring) ++census.in_pending;
    }
  }
  if (owner.recycle_queue) {
    census.in_recycle_queue = owner.recycle_queue->snapshot().size();
  }
  for (const auto& [key, entry] : outstanding_) {
    if (entry.meta.ring_id == ring && entry.epoch == owner.epoch) {
      ++census.outstanding;
    }
  }
  return census;
}

WirecapEngine::TenantCensus WirecapEngine::tenant_census(
    engines::TenantId tenant) const {
  TenantCensus census;
  census.account_charged = tenant_charged(tenant);
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    const QueueState& qs = queues_[q];
    if (qs.tenant != tenant || !qs.open) continue;
    census.pool_captured += qs.driver->pool().state_counts().captured;
    census.engine_census += captured_census(q).total();
  }
  return census;
}

void WirecapEngine::sample_depths(Nanos /*now*/) {
  for (QueueState& qs : queues_) {
    if (!qs.open) continue;
    qs.extra.capture_queue_high_water =
        std::max(qs.extra.capture_queue_high_water,
                 static_cast<std::uint64_t>(capture_depth(qs)));
    qs.extra.pending_high_water = std::max(
        qs.extra.pending_high_water,
        static_cast<std::uint64_t>(qs.pending.size()));
  }
}

std::uint64_t WirecapEngine::total_pool_bytes() const {
  std::uint64_t total = 0;
  for (const auto& qs : queues_) {
    if (qs.driver) total += qs.driver->pool().memory_bytes();
  }
  return total;
}

}  // namespace wirecap::core
