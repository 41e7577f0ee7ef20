// Implementation of the engines::make_engine registry (see
// engines/factory.hpp for why it lives in wirecap_core): the built-in
// entries span every engine layer, topped by core::WirecapEngine.
#include "engines/factory.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "core/wirecap_engine.hpp"
#include "engines/baselines.hpp"
#include "engines/dpdk_engine.hpp"

namespace wirecap::engines {

namespace {

// The offload policy arrives as an enum: strings are converted once at
// the CLI boundary (parse_offload_policy in common/handoff.hpp, which
// throws listing the allowed set).
std::unique_ptr<CaptureEngine> make_wirecap(nic::MultiQueueNic& nic,
                                            const EngineConfig& config,
                                            bool advanced) {
  core::WirecapConfig wirecap_config;
  wirecap_config.cells_per_chunk = config.cells_per_chunk;
  wirecap_config.chunk_count = config.chunk_count;
  wirecap_config.offload_policy = config.offload_policy;
  wirecap_config.nic_numa_node = config.nic_numa_node;
  wirecap_config.queue_numa_node = config.queue_numa_node;
  if (advanced) {
    wirecap_config.offload_threshold = config.offload_threshold;
  }
  return std::make_unique<core::WirecapEngine>(nic.scheduler(), nic,
                                               wirecap_config, config.costs);
}

std::unique_ptr<CaptureEngine> make_dpdk(nic::MultiQueueNic& nic,
                                         const EngineConfig& config,
                                         bool app_offload) {
  DpdkConfig dpdk_config;
  // Match the WireCAP pool under comparison: mempool == R * M.
  dpdk_config.mempool_size = config.cells_per_chunk * config.chunk_count;
  dpdk_config.app_offload = app_offload;
  dpdk_config.app_offload_threshold = config.offload_threshold;
  return std::make_unique<DpdkEngine>(nic.scheduler(), nic, dpdk_config);
}

// Function-local registry in the one TU that defines every factory
// entry point: no static-initialization-order or dead-stripping games.
std::map<std::string, EngineFactoryFn>& registry() {
  static std::map<std::string, EngineFactoryFn> entries = [] {
    std::map<std::string, EngineFactoryFn> builtin;
    builtin["PF_RING"] = [](nic::MultiQueueNic& nic,
                            const EngineConfig& config) {
      PfRingConfig pfring_config;
      pfring_config.kernel_cost_per_packet = config.costs.pfring_kernel_cost;
      pfring_config.napi_wakeup_delay = config.costs.napi_wakeup_delay;
      return std::make_unique<PfRingEngine>(nic.scheduler(), nic,
                                            pfring_config);
    };
    builtin["DNA"] = [](nic::MultiQueueNic& nic, const EngineConfig&) {
      return std::make_unique<Type2Engine>(nic, dna_config());
    };
    builtin["NETMAP"] = [](nic::MultiQueueNic& nic, const EngineConfig&) {
      return std::make_unique<Type2Engine>(nic, netmap_config());
    };
    builtin["PSIOE"] = [](nic::MultiQueueNic& nic, const EngineConfig&) {
      return std::make_unique<PsioeEngine>(nic, PsioeConfig{});
    };
    builtin["DPDK"] = [](nic::MultiQueueNic& nic, const EngineConfig& config) {
      return make_dpdk(nic, config, /*app_offload=*/false);
    };
    builtin["DPDK+app-offload"] = [](nic::MultiQueueNic& nic,
                                     const EngineConfig& config) {
      return make_dpdk(nic, config, /*app_offload=*/true);
    };
    builtin["WireCAP-B"] = [](nic::MultiQueueNic& nic,
                              const EngineConfig& config) {
      return make_wirecap(nic, config, /*advanced=*/false);
    };
    builtin["WireCAP-A"] = [](nic::MultiQueueNic& nic,
                              const EngineConfig& config) {
      return make_wirecap(nic, config, /*advanced=*/true);
    };
    return builtin;
  }();
  return entries;
}

}  // namespace

std::unique_ptr<CaptureEngine> make_engine(std::string_view name,
                                           nic::MultiQueueNic& nic,
                                           const EngineConfig& config) {
  auto& entries = registry();
  const auto it = entries.find(std::string(name));
  if (it == entries.end()) {
    std::string known;
    for (const auto& [entry_name, fn] : entries) {
      if (!known.empty()) known += ", ";
      known += entry_name;
    }
    throw std::invalid_argument("make_engine: unknown engine \"" +
                                std::string(name) + "\" (registered: " +
                                known + ")");
  }
  return it->second(nic, config);
}

void register_engine(std::string name, EngineFactoryFn factory) {
  registry()[std::move(name)] = std::move(factory);
}

std::vector<std::string> registered_engines() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

}  // namespace wirecap::engines
