#include "testing/lifecycle_auditor.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/wirecap_engine.hpp"

namespace wirecap::testing {
namespace {

/// Violation messages kept verbatim (the count is always exact).
constexpr std::size_t kMaxRecordedViolations = 64;

/// The legal edges of the chunk state machine, by the operation that
/// commits them.  Anything else is a lifecycle violation.
const char* expected_cause(driver::ChunkState from, driver::ChunkState to) {
  using driver::ChunkState;
  if (from == ChunkState::kFree && to == ChunkState::kAttached) {
    return "attach";
  }
  if (from == ChunkState::kAttached && to == ChunkState::kCaptured) {
    return "capture";
  }
  if (from == ChunkState::kFree && to == ChunkState::kCaptured) {
    return "rescue";
  }
  if (from == ChunkState::kCaptured && to == ChunkState::kFree) {
    return "recycle";
  }
  if (from == ChunkState::kAttached && to == ChunkState::kFree) {
    return "release";
  }
  return nullptr;
}

std::string pool_tag(const driver::RingBufferPool& pool) {
  std::ostringstream out;
  out << "pool{nic " << pool.nic_id() << ", ring " << pool.ring_id()
      << ", uid " << pool.uid() << "}";
  return out.str();
}

}  // namespace

ChunkLifecycleAuditor::ChunkLifecycleAuditor(AuditorConfig config)
    : config_(config) {}

ChunkLifecycleAuditor::Shadow& ChunkLifecycleAuditor::shadow_for(
    const driver::RingBufferPool& pool, driver::ChunkState seen_now,
    std::uint32_t chunk_id, bool* first_sight) {
  auto [it, inserted] = shadows_.try_emplace(pool.uid());
  *first_sight = inserted;
  Shadow& shadow = it->second;
  if (inserted) {
    // The auditor may be attached to a pool mid-life (set_pool_observer
    // on an already-open engine): seed the shadow from the pool's own
    // view, which already includes the transition being reported.
    shadow.states.resize(pool.chunk_count());
    for (std::uint32_t c = 0; c < pool.chunk_count(); ++c) {
      shadow.states[c] = pool.state(c);
    }
    if (chunk_id < shadow.states.size()) shadow.states[chunk_id] = seen_now;
  }
  return shadow;
}

void ChunkLifecycleAuditor::violation(const driver::RingBufferPool& pool,
                                      std::uint32_t chunk_id,
                                      const std::string& message) {
  ++stats_.violations;
  std::ostringstream out;
  out << pool_tag(pool) << " chunk " << chunk_id << ": " << message;
  const std::string text = out.str();
  if (violation_log_.size() < kMaxRecordedViolations) {
    violation_log_.push_back(text);
  }
  if (tracer_ && tracer_->enabled() && clock_) {
    tracer_->instant("auditor.violation", "auditor", clock_(), pool.ring_id(),
                     "chunk", chunk_id, "count", stats_.violations);
  }
  if (config_.throw_on_violation) {
    throw std::logic_error("ChunkLifecycleAuditor: " + text);
  }
}

void ChunkLifecycleAuditor::on_transition(const driver::RingBufferPool& pool,
                                          std::uint32_t chunk_id,
                                          driver::ChunkState from,
                                          driver::ChunkState to,
                                          const char* cause) {
  ++stats_.transitions;
  if (chunk_id >= pool.chunk_count()) {
    violation(pool, chunk_id, "transition for out-of-range chunk id");
    return;
  }

  bool first_sight = false;
  Shadow& shadow = shadow_for(pool, to, chunk_id, &first_sight);
  if (!first_sight && shadow.states[chunk_id] != from) {
    // The caller believes the chunk was in `from`, but its shadowed
    // history says otherwise: a use-after-recycle or a transition that
    // bypassed the pool (stale metadata acting on a reused chunk id).
    violation(pool, chunk_id,
              std::string("transition ") + to_string(from) + " -> " +
                  to_string(to) + " (" + cause + ") but shadow state is " +
                  to_string(shadow.states[chunk_id]));
    shadow.states[chunk_id] = to;  // resync so one bug reports once
    return;
  }

  const char* expected = expected_cause(from, to);
  if (expected == nullptr) {
    violation(pool, chunk_id,
              std::string("illegal edge ") + to_string(from) + " -> " +
                  to_string(to) + " (" + cause + ")");
  } else if (std::strcmp(expected, cause) != 0) {
    violation(pool, chunk_id,
              std::string("edge ") + to_string(from) + " -> " + to_string(to) +
                  " attributed to '" + cause + "', expected '" + expected +
                  "'");
  }
  shadow.states[chunk_id] = to;

  if (std::strcmp(cause, "attach") == 0) ++stats_.attaches;
  else if (std::strcmp(cause, "capture") == 0) ++stats_.captures;
  else if (std::strcmp(cause, "rescue") == 0) ++stats_.rescues;
  else if (std::strcmp(cause, "recycle") == 0) ++stats_.recycles;
  else if (std::strcmp(cause, "release") == 0) ++stats_.releases;
}

void ChunkLifecycleAuditor::on_recycle_reject(
    const driver::RingBufferPool& pool, const driver::ChunkMeta& meta,
    StatusCode code) {
  ++stats_.recycle_rejects;
  // Rejects are the validation layer *working* (double recycles and
  // forged metadata must bounce), so they are counted, not flagged.
  // The exception: a reject of a chunk the shadow believes is captured
  // and whose coordinates match this pool means valid metadata bounced
  // — a lost chunk in the making.
  const auto it = shadows_.find(pool.uid());
  if (it == shadows_.end()) return;
  if (meta.nic_id != pool.nic_id() || meta.ring_id != pool.ring_id()) return;
  if (meta.chunk_id >= it->second.states.size()) return;
  if (it->second.states[meta.chunk_id] == driver::ChunkState::kCaptured &&
      code == StatusCode::kInvalidArgument && meta.pkt_count > 0 &&
      meta.first_cell + meta.pkt_count <= pool.cells_per_chunk()) {
    violation(pool, meta.chunk_id,
              "recycle of a captured chunk with in-range metadata rejected");
  }
}

void ChunkLifecycleAuditor::on_shares(const driver::RingBufferPool& pool,
                                      std::uint32_t chunk_id,
                                      std::int64_t delta, std::uint32_t now) {
  if (delta > 0) {
    stats_.share_grants += static_cast<std::uint64_t>(delta);
  } else {
    stats_.share_releases += static_cast<std::uint64_t>(-delta);
  }
  if (chunk_id >= pool.chunk_count()) {
    violation(pool, chunk_id, "share change for out-of-range chunk id");
    return;
  }
  bool first_sight = false;
  Shadow& shadow = shadow_for(pool, pool.state(chunk_id), chunk_id,
                              &first_sight);
  if (shadow.shares.size() < pool.chunk_count()) {
    shadow.shares.resize(pool.chunk_count(), 0);
  }
  if (shadow.states[chunk_id] != driver::ChunkState::kCaptured) {
    violation(pool, chunk_id,
              std::string("share change on a ") +
                  to_string(shadow.states[chunk_id]) + " chunk");
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(shadow.shares[chunk_id]) + delta;
  if (expected < 0 || expected != static_cast<std::int64_t>(now)) {
    violation(pool, chunk_id,
              "share count " + std::to_string(now) + " disagrees with shadow " +
                  std::to_string(shadow.shares[chunk_id]) + " + delta " +
                  std::to_string(delta));
  }
  shadow.shares[chunk_id] = now;
}

void ChunkLifecycleAuditor::check_pool(const driver::RingBufferPool& pool) {
  const driver::ChunkStateCounts counts = pool.state_counts();
  if (counts.free + counts.attached + counts.captured != pool.chunk_count()) {
    violation(pool, 0,
              "state populations do not sum to R (free " +
                  std::to_string(counts.free) + " + attached " +
                  std::to_string(counts.attached) + " + captured " +
                  std::to_string(counts.captured) + " != " +
                  std::to_string(pool.chunk_count()) + ")");
  }
  if (counts.free != pool.free_chunks()) {
    violation(pool, 0,
              "free list length " + std::to_string(pool.free_chunks()) +
                  " disagrees with free state count " +
                  std::to_string(counts.free));
  }
  if (counts.captured != pool.captured_chunks()) {
    violation(pool, 0,
              "captured counter " + std::to_string(pool.captured_chunks()) +
                  " disagrees with captured state count " +
                  std::to_string(counts.captured));
  }
  const auto it = shadows_.find(pool.uid());
  if (it == shadows_.end()) return;  // never saw a transition yet
  for (std::uint32_t c = 0; c < pool.chunk_count(); ++c) {
    if (it->second.states[c] != pool.state(c)) {
      violation(pool, c,
                std::string("shadow state ") + to_string(it->second.states[c]) +
                    " disagrees with pool state " + to_string(pool.state(c)) +
                    " (a transition bypassed the observer)");
    }
    const std::uint32_t shares = c < it->second.shares.size()
                                     ? it->second.shares[c]
                                     : 0;
    if (shares != pool.extra_shares(c)) {
      violation(pool, c,
                "shadow share count " + std::to_string(shares) +
                    " disagrees with pool share count " +
                    std::to_string(pool.extra_shares(c)));
    }
    if (shares != 0 && pool.state(c) != driver::ChunkState::kCaptured) {
      violation(pool, c,
                std::string("fan-out shares outstanding on a ") +
                    to_string(pool.state(c)) + " chunk");
    }
  }
}

void ChunkLifecycleAuditor::check_conservation(
    const core::WirecapEngine& engine, std::uint32_t ring) {
  ++stats_.conservation_checks;
  const driver::RingBufferPool& pool = engine.pool(ring);
  check_pool(pool);
  const driver::ChunkStateCounts counts = pool.state_counts();
  const core::WirecapEngine::CapturedCensus census =
      engine.captured_census(ring);
  if (census.total() != counts.captured) {
    violation(pool, 0,
              "conservation: pool holds " + std::to_string(counts.captured) +
                  " captured chunks but the engine accounts for " +
                  std::to_string(census.total()) + " (capture queues " +
                  std::to_string(census.in_capture_queues) + ", pending " +
                  std::to_string(census.in_pending) + ", recycle queue " +
                  std::to_string(census.in_recycle_queue) + ", outstanding " +
                  std::to_string(census.outstanding) + ")");
  }
}

void ChunkLifecycleAuditor::tenant_violation(engines::TenantId tenant,
                                             const std::string& message) {
  ++stats_.violations;
  const std::string text =
      "tenant " + std::to_string(tenant) + ": " + message;
  if (violation_log_.size() < kMaxRecordedViolations) {
    violation_log_.push_back(text);
  }
  if (tracer_ && tracer_->enabled() && clock_) {
    tracer_->instant("auditor.tenant_violation", "auditor", clock_(), tenant,
                     "count", stats_.violations);
  }
  if (config_.throw_on_violation) {
    throw std::logic_error("ChunkLifecycleAuditor: " + text);
  }
}

void ChunkLifecycleAuditor::check_tenant_conservation(
    const core::WirecapEngine& engine, engines::TenantId tenant) {
  ++stats_.tenant_checks;
  const core::WirecapEngine::TenantCensus census =
      engine.tenant_census(tenant);
  if (census.account_charged != census.pool_captured ||
      census.account_charged != census.engine_census) {
    tenant_violation(
        tenant,
        "per-tenant conservation: account charged " +
            std::to_string(census.account_charged) + ", pool captured " +
            std::to_string(census.pool_captured) + ", engine census " +
            std::to_string(census.engine_census) + " disagree");
  }
}

void ChunkLifecycleAuditor::bind_telemetry(telemetry::Telemetry& telemetry,
                                           const std::string& prefix,
                                           std::function<Nanos()> clock) {
  tracer_ = &telemetry.tracer;
  clock_ = std::move(clock);
  const std::string p = prefix + ".auditor.";
  telemetry.registry.bind_counter(p + "transitions",
                                  [this] { return stats_.transitions; });
  telemetry.registry.bind_counter(p + "violations",
                                  [this] { return stats_.violations; });
  telemetry.registry.bind_counter(p + "recycle_rejects",
                                  [this] { return stats_.recycle_rejects; });
  telemetry.registry.bind_counter(p + "share_grants",
                                  [this] { return stats_.share_grants; });
  telemetry.registry.bind_counter(p + "share_releases",
                                  [this] { return stats_.share_releases; });
  telemetry.registry.bind_counter(p + "conservation_checks",
                                  [this] { return stats_.conservation_checks; });
  telemetry.registry.bind_counter(p + "tenant_checks",
                                  [this] { return stats_.tenant_checks; });
  telemetry.registry.bind_gauge(p + "tracked_pools", [this] {
    return static_cast<double>(shadows_.size());
  });
}

}  // namespace wirecap::testing
