#include "engines/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace wirecap::engines {

TenantId CaptureEngine::register_tenant(const TenantSpec& spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("register_tenant: tenant name is empty");
  }
  if (spec.queues.empty()) {
    throw std::invalid_argument("register_tenant: tenant \"" + spec.name +
                                "\" owns no queues");
  }
  std::vector<std::uint32_t> sorted = spec.queues;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("register_tenant: tenant \"" + spec.name +
                                "\" lists a queue twice");
  }

  // Upsert by name.
  TenantId id = kNoTenant;
  for (TenantId i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == spec.name) {
      id = i;
      break;
    }
  }
  if (id == kNoTenant) {
    id = static_cast<TenantId>(tenants_.size());
    tenants_.emplace_back();
  }

  // Exclusive ownership: queues the new spec claims are released from
  // their previous owner, keeping every pair of tenants disjoint.
  for (TenantId i = 0; i < tenants_.size(); ++i) {
    if (i == id) continue;
    auto& owned = tenants_[i].queues;
    owned.erase(std::remove_if(owned.begin(), owned.end(),
                               [&spec](std::uint32_t q) {
                                 return std::find(spec.queues.begin(),
                                                  spec.queues.end(),
                                                  q) != spec.queues.end();
                               }),
                owned.end());
  }
  tenants_[id] = spec;
  return id;
}

TenantId CaptureEngine::tenant_of(std::uint32_t queue) const {
  for (TenantId i = 0; i < tenants_.size(); ++i) {
    const auto& owned = tenants_[i].queues;
    if (std::find(owned.begin(), owned.end(), queue) != owned.end()) return i;
  }
  return kNoTenant;
}

std::optional<ChunkCaptureView> CaptureEngine::try_next_chunk(
    std::uint32_t queue, std::size_t max_packets) {
  ChunkCaptureView chunk;
  chunk.source_ring = queue;
  while (chunk.packets.size() < max_packets) {
    auto view = try_next(queue);
    if (!view) break;
    chunk.packets.push_back(*view);
  }
  if (chunk.packets.empty()) return std::nullopt;
  return chunk;
}

void CaptureEngine::done_chunk(std::uint32_t queue,
                               const ChunkCaptureView& chunk) {
  for (const CaptureView& view : chunk.packets) done(queue, view);
}

std::size_t CaptureEngine::try_next_batch(std::uint32_t queue,
                                          std::size_t max_packets,
                                          PacketBatch& batch) {
  batch.clear();
  batch.source_ring = queue;
  while (batch.views.size() < max_packets) {
    auto view = try_next(queue);
    if (!view) break;
    batch.views.push_back(*view);
    batch.refs.push_back(BatchRef{view->handle, 1});
  }
  return batch.views.size();
}

void CaptureEngine::done_batch(std::uint32_t queue, const PacketBatch& batch) {
  if (batch.refs.empty() && !batch.views.empty()) {
    throw std::logic_error(
        "CaptureEngine::done_batch: batch has views but no refs");
  }
  for (const BatchRef& ref : batch.refs) {
    if (ref.packets > 0) release_ref(queue, ref.handle, ref.packets);
  }
}

void CaptureEngine::add_batch_shares(std::uint32_t /*queue*/,
                                     const PacketBatch& /*batch*/,
                                     std::uint32_t /*extra*/) {
  throw std::logic_error(
      "CaptureEngine::add_batch_shares: engine has no native share support");
}

void CaptureEngine::release_ref(std::uint32_t queue, std::uint64_t handle,
                                std::uint32_t count) {
  CaptureView view;
  view.handle = handle;
  for (std::uint32_t i = 0; i < count; ++i) done(queue, view);
}

void CaptureEngine::bind_telemetry(telemetry::Telemetry& telemetry,
                                   const std::string& prefix,
                                   std::uint32_t num_queues) {
  tracer_ = &telemetry.tracer;
  telemetry::MetricRegistry& registry = telemetry.registry;
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    const std::string qp = prefix + ".q" + std::to_string(q) + ".";
    registry.bind_counter(qp + "delivered",
                          [this, q] { return queue_stats(q).delivered; });
    registry.bind_counter(qp + "delivery_dropped", [this, q] {
      return queue_stats(q).delivery_dropped;
    });
    registry.bind_counter(qp + "copies",
                          [this, q] { return queue_stats(q).copies; });
    registry.bind_counter(qp + "chunks_offloaded_out", [this, q] {
      return queue_stats(q).chunks_offloaded_out;
    });
    registry.bind_counter(qp + "chunks_offloaded_in", [this, q] {
      return queue_stats(q).chunks_offloaded_in;
    });
  }
}

}  // namespace wirecap::engines
