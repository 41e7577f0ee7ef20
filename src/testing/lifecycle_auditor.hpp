// The chunk lifecycle auditor: a PoolObserver that shadows the
// free → attached → captured → free state machine of every ring buffer
// pool it watches and fails fast on violations.
//
// The production data path carries chunk *metadata* across many hands —
// driver segments, the engine's capture/recycle work-queue pair,
// `pending`, buddy capture queues, the outstanding map, application
// threads, TX completions — and a bug anywhere shows up far from its
// cause (a leak looks like pool exhaustion; a double recycle looks like
// a corrupted free list).  The auditor closes that distance: it keeps
// an independent copy of every chunk's state, checks each transition
// the pool commits against the legal edges, and cross-checks the
// engine-wide conservation law
//
//   free + attached + captured == R
//   captured == (capture queues ∪ pending ∪ recycle queue ∪ outstanding)
//
// at event boundaries.  It reports through the telemetry registry and
// tracer and is driven over many seeds by the fault harness (faults.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "driver/chunk_pool.hpp"
#include "engines/tenant.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::core {
class WirecapEngine;
}

namespace wirecap::testing {

struct AuditorConfig {
  /// Throw std::logic_error at the violating call site (fail fast).
  /// The soak harness turns this off to collect every violation of a
  /// seed before reporting.
  bool throw_on_violation = true;
};

struct AuditorStats {
  std::uint64_t transitions = 0;
  std::uint64_t attaches = 0;
  std::uint64_t captures = 0;
  std::uint64_t rescues = 0;
  std::uint64_t recycles = 0;
  std::uint64_t releases = 0;
  std::uint64_t recycle_rejects = 0;
  /// Fan-out share grants / releases observed (pipeline FanOut).
  std::uint64_t share_grants = 0;
  std::uint64_t share_releases = 0;
  std::uint64_t conservation_checks = 0;
  /// Per-tenant census agreements audited (multi-tenant harnesses).
  std::uint64_t tenant_checks = 0;
  std::uint64_t violations = 0;
};

class ChunkLifecycleAuditor final : public driver::PoolObserver {
 public:
  explicit ChunkLifecycleAuditor(AuditorConfig config = {});

  // --- PoolObserver ---
  void on_transition(const driver::RingBufferPool& pool,
                     std::uint32_t chunk_id, driver::ChunkState from,
                     driver::ChunkState to, const char* cause) override;
  void on_recycle_reject(const driver::RingBufferPool& pool,
                         const driver::ChunkMeta& meta,
                         StatusCode code) override;
  void on_shares(const driver::RingBufferPool& pool, std::uint32_t chunk_id,
                 std::int64_t delta, std::uint32_t now) override;

  // --- audits (call at event boundaries, i.e. between scheduler events) ---

  /// Per-pool invariants: the shadow agrees with the pool's actual
  /// states chunk by chunk (a disagreement means a transition bypassed
  /// the observer seam), the state populations sum to R, and the pool's
  /// O(1) free_chunks()/captured_chunks() counters match the recount.
  void check_pool(const driver::RingBufferPool& pool);

  /// The engine-wide conservation law for an *open* ring: every chunk
  /// the pool counts as captured is found in exactly one engine-side
  /// location.  A shortfall is a leak; an excess is double tracking.
  void check_conservation(const core::WirecapEngine& engine,
                          std::uint32_t ring);

  /// The per-tenant extension of the conservation law: the charge the
  /// quota throttles on (the pools' O(1) captured counters), the O(R)
  /// recount of those pools' chunk states and the engine-side census
  /// must all agree — a stalled tenant can only be debited for chunks
  /// that really sit in its own pools, never a neighbour's.  All three
  /// sum the tenant's open member queues only.
  void check_tenant_conservation(const core::WirecapEngine& engine,
                                 engines::TenantId tenant);

  // --- results ---
  [[nodiscard]] const AuditorStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violation_log_;
  }
  [[nodiscard]] bool clean() const { return stats_.violations == 0; }

  /// Registers the auditor's counters under `<prefix>.auditor.*` and
  /// keeps the tracer (+ virtual-time clock) for per-violation instant
  /// events.
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix,
                      std::function<Nanos()> clock = nullptr);

 private:
  struct Shadow {
    std::vector<driver::ChunkState> states;
    /// Shadowed fan-out share counts (lazily sized on first grant);
    /// nonzero shares are only legal on captured chunks, and every
    /// recycle must happen at zero.
    std::vector<std::uint32_t> shares;
  };

  Shadow& shadow_for(const driver::RingBufferPool& pool,
                     driver::ChunkState seen_now, std::uint32_t chunk_id,
                     bool* first_sight);
  void violation(const driver::RingBufferPool& pool, std::uint32_t chunk_id,
                 const std::string& message);
  void tenant_violation(engines::TenantId tenant, const std::string& message);

  AuditorConfig config_;
  AuditorStats stats_;
  /// Keyed by RingBufferPool::uid(): reopen cycles build fresh pools at
  /// possibly-recycled addresses, and stale shadow state must never
  /// bleed into a new pool's audit.
  std::unordered_map<std::uint64_t, Shadow> shadows_;
  std::vector<std::string> violation_log_;
  telemetry::EventTracer* tracer_ = nullptr;
  std::function<Nanos()> clock_;
};

}  // namespace wirecap::testing
