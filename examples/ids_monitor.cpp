// IDS-style monitor — the paper's motivating workload (§1: intrusion
// detection systems are the canonical heavy per-packet consumers that
// drop packets under load) — now as the headline of the in-capture
// pipeline: ONE capture box (one WireCAP-A engine over six RSS queues)
// simultaneously serves three applications as zero-copy fan-out
// subscribers of the same chunk stream:
//
//   * "ids"   — snort-class signature matching (real BPF programs),
//   * "flows" — a NetFlow-style collector over net::FlowTable,
//   * "spool" — a capture-to-disk consumer (byte/chunk accounting
//               standing in for store::Spool).
//
// Every subscriber's views alias the same ring-buffer-pool chunks; the
// per-chunk refcount recycles a chunk only after the LAST subscriber
// releases it.  To show nothing is lost in the sharing, the same trace
// is then replayed twice more with each application owning a dedicated
// engine, and the per-application results are compared — they match
// byte for byte.
#include <cstdio>
#include <vector>

#include "apps/harness.hpp"
#include "bpf/codegen.hpp"
#include "bpf/predecode.hpp"
#include "net/flow_table.hpp"
#include "trace/border_router.hpp"

using namespace wirecap;

namespace {

constexpr std::uint32_t kQueues = 6;
constexpr unsigned kIdsCostX = 300;   // snort-class per-packet work
constexpr unsigned kFlowCostX = 120;  // accounting-class per-packet work

trace::BorderRouterConfig trace_config() {
  trace::BorderRouterConfig config;
  config.duration_s = 6.0;
  config.hot_phase_split_s = 1.0;
  return config;
}

apps::ExperimentConfig base_config() {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 256;
  config.engine.chunk_count = 100;
  config.engine.offload_threshold = 0.6;
  config.num_queues = kQueues;
  config.filter = "";
  return config;
}

struct Signature {
  const char* name;
  bpf::Predecoded filter;
};

std::vector<Signature> make_signatures() {
  std::vector<Signature> signatures;
  const auto add = [&signatures](const char* name, const char* expression) {
    signatures.push_back(
        {name, bpf::Predecoded{bpf::compile_filter(expression)}});
  };
  add("udp-to-fermilab", "udp and dst net 131.225.0.0/16");
  add("ssh-traffic", "tcp port 22");
  add("tiny-frames", "len <= 64");
  return signatures;
}

struct IdsState {
  std::vector<Signature> signatures = make_signatures();
  std::uint64_t inspected = 0;
  std::vector<std::uint64_t> per_queue_inspected =
      std::vector<std::uint64_t>(kQueues, 0);
  std::vector<std::uint64_t> alerts = std::vector<std::uint64_t>(3, 0);

  void inspect(std::uint32_t queue, const engines::CaptureView& view) {
    ++inspected;
    ++per_queue_inspected[queue];
    for (std::size_t s = 0; s < signatures.size(); ++s) {
      if (signatures[s].filter.matches(view.bytes, view.wire_len)) {
        ++alerts[s];
      }
    }
  }
};

struct FlowState {
  // One table per application thread (a flow only ever lands in one).
  std::vector<net::FlowTable> tables = std::vector<net::FlowTable>(kQueues);

  [[nodiscard]] net::FlowTable merged() const {
    net::FlowTable merged_table;
    for (const net::FlowTable& table : tables) merged_table.merge(table);
    return merged_table;
  }
};

struct SpoolState {
  std::uint64_t batches = 0;
  std::uint64_t bytes = 0;
};

/// The shared-engine run: three subscribers per queue on one fan-out.
struct SharedResult {
  IdsState ids;
  FlowState flows;
  SpoolState spool;
  apps::ExperimentResult experiment;
};

SharedResult run_shared() {
  SharedResult result;
  apps::ExperimentConfig config = base_config();
  // One combined processing budget for the shared box: the IDS is the
  // heavyweight consumer, so its cost dominates the runner's work item.
  config.x = kIdsCostX;
  config.steering = pipeline::Steering::kBroadcast;
  config.subscribers = [&result](std::uint32_t q) {
    std::vector<pipeline::Subscriber> subs;
    subs.push_back({"ids",
                    [&result, q](pipeline::SharedBatch batch) {
                      for (const engines::CaptureView& view : batch.batch()) {
                        result.ids.inspect(q, view);
                      }
                    },
                    std::nullopt});
    subs.push_back({"flows",
                    [&result, q](pipeline::SharedBatch batch) {
                      for (const engines::CaptureView& view : batch.batch()) {
                        result.flows.tables[q].update(view);
                      }
                    },
                    std::nullopt});
    subs.push_back({"spool",
                    [&result](pipeline::SharedBatch batch) {
                      ++result.spool.batches;
                      for (const engines::CaptureView& view : batch.batch()) {
                        result.spool.bytes += view.wire_len;
                      }
                    },
                    std::nullopt});
    return subs;
  };

  apps::Experiment experiment(std::move(config));
  const trace::BorderRouterConfig trace = trace_config();
  auto source = trace::make_border_router_source(trace);
  result.experiment =
      experiment.run(*source, Nanos::from_seconds(trace.duration_s + 10));
  return result;
}

IdsState run_dedicated_ids() {
  IdsState ids;
  apps::ExperimentConfig config = base_config();
  config.x = kIdsCostX;
  config.execute_filter = false;
  apps::Experiment experiment(std::move(config));
  for (std::uint32_t q = 0; q < kQueues; ++q) {
    experiment.handler(q).set_packet_hook(
        [&ids, q](const engines::CaptureView& view) { ids.inspect(q, view); });
  }
  const trace::BorderRouterConfig trace = trace_config();
  auto source = trace::make_border_router_source(trace);
  experiment.run(*source, Nanos::from_seconds(trace.duration_s + 10));
  return ids;
}

FlowState run_dedicated_flows() {
  FlowState flows;
  apps::ExperimentConfig config = base_config();
  config.x = kFlowCostX;
  config.execute_filter = false;
  apps::Experiment experiment(std::move(config));
  for (std::uint32_t q = 0; q < kQueues; ++q) {
    experiment.handler(q).set_packet_hook(
        [&flows, q](const engines::CaptureView& view) {
          flows.tables[q].update(view);
        });
  }
  const trace::BorderRouterConfig trace = trace_config();
  auto source = trace::make_border_router_source(trace);
  experiment.run(*source, Nanos::from_seconds(trace.duration_s + 10));
  return flows;
}

bool same_flow_tables(const net::FlowTable& a, const net::FlowTable& b) {
  if (a.size() != b.size() || a.total_packets() != b.total_packets() ||
      a.total_bytes() != b.total_bytes()) {
    return false;
  }
  for (const auto& [flow, record] : a.records()) {
    const auto it = b.records().find(flow);
    if (it == b.records().end() || it->second.packets != record.packets ||
        it->second.bytes != record.bytes || it->second.first != record.first ||
        it->second.last != record.last) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  std::puts("one capture box, three consumers: IDS + flow stats + spool");
  std::puts("(six RSS queues, WireCAP-A, zero-copy fan-out subscriptions)");

  const SharedResult shared = run_shared();

  std::printf("\npackets on the wire: %llu, dropped: %llu (%.2f%%)\n",
              static_cast<unsigned long long>(shared.experiment.sent),
              static_cast<unsigned long long>(
                  shared.experiment.capture_dropped +
                  shared.experiment.delivery_dropped),
              100.0 * shared.experiment.drop_rate());
  std::printf("chunks offloaded between buddy cores: %llu\n",
              static_cast<unsigned long long>(
                  shared.experiment.offloaded_chunks));

  std::printf("\n[ids]   inspected: %llu\n",
              static_cast<unsigned long long>(shared.ids.inspected));
  std::printf("[ids]   alerts: udp-to-fermilab=%llu ssh=%llu tiny=%llu\n",
              static_cast<unsigned long long>(shared.ids.alerts[0]),
              static_cast<unsigned long long>(shared.ids.alerts[1]),
              static_cast<unsigned long long>(shared.ids.alerts[2]));
  const net::FlowTable shared_merged = shared.flows.merged();
  std::printf("[flows] flows tracked: %zu (%llu packets, %llu bytes)\n",
              shared_merged.size(),
              static_cast<unsigned long long>(shared_merged.total_packets()),
              static_cast<unsigned long long>(shared_merged.total_bytes()));
  std::printf("[spool] spooled: %llu bytes in %llu batches\n",
              static_cast<unsigned long long>(shared.spool.bytes),
              static_cast<unsigned long long>(shared.spool.batches));

  std::puts("\nreplaying the same trace with one DEDICATED engine per app...");
  const IdsState dedicated_ids = run_dedicated_ids();
  const FlowState dedicated_flows = run_dedicated_flows();

  const bool ids_match =
      shared.ids.inspected == dedicated_ids.inspected &&
      shared.ids.alerts == dedicated_ids.alerts &&
      shared.ids.per_queue_inspected == dedicated_ids.per_queue_inspected;
  const bool flows_match =
      same_flow_tables(shared_merged, dedicated_flows.merged());

  std::printf("\nshared vs dedicated, per-app results: ids %s, flows %s\n",
              ids_match ? "IDENTICAL" : "DIFFERENT",
              flows_match ? "IDENTICAL" : "DIFFERENT");
  std::puts(ids_match && flows_match
                ? "sharing one capture engine cost the apps nothing."
                : "mismatch — expected only under overload (check drops).");
  return ids_match && flows_match ? 0 : 1;
}
