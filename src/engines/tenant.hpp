// Multi-tenant registration: several applications (an IDS, a flow-stats
// collector, a capture-to-disk spool) share one NIC, each owning a
// disjoint set of its receive queues.
//
// A TenantSpec's queues form the tenant's buddy group (offloading never
// crosses tenants), and `chunk_quota` caps how many captured chunks the
// tenant may hold engine-wide at once (a stalled tenant exhausts only
// its own budget, not the NIC).  The spec is the quota's only home, and
// the charge is read from the ring-buffer pools of the tenant's open
// queues, so a budget follows its queues without any bookkeeping of its
// own.  Offload policy, threshold and NUMA placement stay engine-wide.
//
// Registration is an upsert keyed on `name`: re-registering a name
// replaces that tenant's spec.  Queue ownership is exclusive — a queue
// claimed by a new spec is released from its previous owner (whose
// buddy lists shrink accordingly), so the disjointness invariant holds
// at every moment without making reconfiguration a two-step dance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wirecap::engines {

/// Index of a registered tenant (dense, assigned by registration order;
/// stable across upserts of the same name).
using TenantId = std::uint32_t;

/// A queue that belongs to no tenant (the state every queue starts in).
inline constexpr TenantId kNoTenant = 0xFFFFFFFFu;

struct TenantSpec {
  /// Upsert key; also the telemetry label under `tenant.<id>.*`.
  std::string name;

  /// The receive queues this tenant owns — its buddy group.  Must be
  /// non-empty and duplicate-free; queues claimed here are released
  /// from any other tenant.
  std::vector<std::uint32_t> queues;

  /// Cap on captured chunks the tenant may hold at once, summed over
  /// its queues (in capture queues, parked, awaiting recycle, or held
  /// by the application).  0 means unlimited.  A tenant at its quota
  /// stops capturing — its rings back up and drop — without touching
  /// any other tenant's pools.
  std::uint32_t chunk_quota = 0;
};

/// Quota-side account of one tenant, assembled on request for tests and
/// benches (the engine stores only `quota_stalls`).
struct TenantAccount {
  std::uint32_t quota = 0;          ///< the spec's; 0 = unlimited
  std::uint64_t charged = 0;        ///< captured in its open queues' pools
  std::uint64_t quota_stalls = 0;   ///< capture polls skipped at quota
};

/// The contiguous-slice partition the harnesses register: `tenants`
/// tenants split queues [0, num_queues) in order, and queue q belongs to
/// tenant q * tenants / num_queues.
[[nodiscard]] inline TenantId slice_owner(std::uint32_t queue,
                                          std::uint32_t tenants,
                                          std::uint32_t num_queues) {
  return queue * tenants / num_queues;
}

/// One spec per slice, named "t0", "t1", ... and carrying `chunk_quota`.
/// A slice owns no queue when there are more tenants than queues.
[[nodiscard]] inline std::vector<TenantSpec> slice_tenants(
    std::uint32_t tenants, std::uint32_t num_queues,
    std::uint32_t chunk_quota = 0) {
  std::vector<TenantSpec> specs(tenants);
  for (TenantId t = 0; t < tenants; ++t) {
    specs[t].name = "t" + std::to_string(t);
    specs[t].chunk_quota = chunk_quota;
  }
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    specs[slice_owner(q, tenants, num_queues)].queues.push_back(q);
  }
  return specs;
}

}  // namespace wirecap::engines
