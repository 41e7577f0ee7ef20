// Capture-to-disk spool benchmark: sustained spool throughput and drop
// accounting per backpressure policy, plus the offload-feedback
// demonstration — one shard's simulated disk is slowed and the spool
// backlog pushes the owning queue over the buddy-group threshold T, so
// chunks (and their disk work) migrate to the idle buddy.
//
// `bench_store_spool --drain-compare[=BENCH_spool.json]` instead runs
// the deterministic (virtual-time) drain comparison the CI gate
// consumes: vectored multi-outstanding drain vs packet-at-a-time
// depth-1 drain over identical chunks, plus the bloom filter-skip
// segment-touch ratio.  The virtual comparison restates the cost
// model's disk_packet_write_cost, so the same run also times
// SegmentWriter::write against write_chunk over the drain's packets on
// the host clock and reports that ratio (host_* fields, on stderr and
// in the JSON) beside it.
//
// Accepts --metrics-out/--trace-out; the CI job uploads the metrics
// JSON as a build artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hpp"
#include "core/wirecap_engine.hpp"
#include "net/packet.hpp"
#include "store/reader.hpp"
#include "store/spool.hpp"

namespace wirecap::bench {
namespace {

struct SpoolRun {
  apps::ExperimentResult result;
  store::ShardStats stats;
  std::uint64_t offloaded = 0;
  double seconds = 0.0;
};

/// Per-process parent of every spool this bench writes; main() removes
/// it before exiting.
std::filesystem::path bench_root() {
  return std::filesystem::temp_directory_path() /
         ("wirecap_bench_spool_" + std::to_string(::getpid()));
}

std::filesystem::path bench_dir(const std::string& leaf) {
  return bench_root() / leaf;
}

SpoolRun run_spool(store::BackpressurePolicy policy, double slow_factor,
                   const apps::TelemetryFlags* flags) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 64;
  config.engine.offload_threshold = 0.25;
  config.num_queues = 2;
  config.ring_size = 512;
  store::SpoolConfig spool_config;
  spool_config.dir = bench_dir(std::string(to_string(policy)) +
                               (slow_factor > 1.0 ? "-slow" : ""));
  spool_config.policy = policy;
  spool_config.queue_capacity_chunks = 8;
  if (flags) flags->apply(config);
  config.spool = spool_config;
  apps::Experiment experiment{config};

  if (slow_factor > 1.0) {
    experiment.spool()->shard(0).set_slow_disk(slow_factor,
                                               Nanos::from_seconds(100.0));
  }

  // All traffic steers to queue 0: its shard takes the whole write
  // load, so backpressure (and, with a slow disk, offloading) engages.
  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 200'000;
  trace_config.frame_bytes = 256;
  trace_config.link_bits_per_second = 10e9;
  Xoshiro256 rng{0x570CE};
  trace_config.flows = trace::flows_for_queue(rng, 0, 2, 1);
  trace::ConstantRateSource source{trace_config};

  const double trace_s = static_cast<double>(trace_config.packet_count) /
                         source.rate().per_second();
  SpoolRun run;
  run.result = experiment.run(source, Nanos::from_seconds(trace_s + 5.0));
  run.stats = experiment.spool()->total_stats();
  auto* engine = dynamic_cast<core::WirecapEngine*>(&experiment.engine());
  run.offloaded = engine ? engine->queue_stats(0).chunks_offloaded_out : 0;
  run.seconds = trace_s;
  if (flags) flags->write(experiment.telemetry());
  std::filesystem::remove_all(spool_config.dir);
  return run;
}

// --- deterministic drain comparison (--drain-compare) ---

/// The drain's traffic: `chunk_count` chunks of `cells_per_chunk`
/// 256-byte frames of one UDP flow, seq == packet index.
std::vector<net::WirePacket> drain_packets(std::uint64_t chunk_count,
                                           std::uint32_t cells_per_chunk) {
  std::vector<net::WirePacket> packets;
  const std::uint64_t total = chunk_count * cells_per_chunk;
  packets.reserve(total);
  for (std::uint64_t seq = 0; seq < total; ++seq) {
    packets.push_back(net::WirePacket::make(
        Nanos{static_cast<std::int64_t>(seq)},
        net::FlowKey{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                     4000, 53, net::IpProto::kUdp},
        256, seq));
  }
  return packets;
}

/// Views of `packets`, cut into chunks of `cells_per_chunk`.
std::vector<engines::ChunkCaptureView> drain_chunks(
    std::vector<net::WirePacket>& packets, std::uint32_t cells_per_chunk) {
  std::vector<engines::ChunkCaptureView> chunks;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i % cells_per_chunk == 0) chunks.emplace_back();
    net::WirePacket& pkt = packets[i];
    engines::CaptureView view;
    view.bytes = pkt.mutable_bytes();
    view.wire_len = pkt.wire_len();
    view.timestamp = pkt.timestamp();
    view.seq = pkt.seq();
    chunks.back().packets.push_back(view);
  }
  return chunks;
}

/// Virtual nanoseconds for one shard to drain `chunks`, offered up
/// front at t=0.  Deterministic: the simulation clock is the only clock
/// involved.
struct DrainOutcome {
  double virtual_ns = 0.0;
  std::uint64_t bytes = 0;
};

DrainOutcome run_drain(const std::filesystem::path& dir, bool vectored,
                       unsigned depth,
                       const std::vector<engines::ChunkCaptureView>& chunks) {
  std::filesystem::create_directories(dir);
  sim::Scheduler scheduler;
  sim::CostModel costs;
  costs.disk_queue_depth = depth;
  store::SpoolConfig config;
  config.dir = dir;
  config.vectored_drain = vectored;
  config.queue_capacity_chunks = chunks.size() * 2;
  store::Spool spool{scheduler, costs, config};

  Nanos last_release = Nanos::zero();
  std::uint64_t releases = 0;
  for (const engines::ChunkCaptureView& chunk : chunks) {
    spool.shard(0).offer(chunk, [&](const engines::ChunkCaptureView&) {
      ++releases;
      last_release = scheduler.now();
    });
  }
  scheduler.run_until(Nanos::from_seconds(60.0));
  DrainOutcome outcome;
  outcome.virtual_ns = static_cast<double>(last_release.count());
  outcome.bytes = spool.shard(0).stats().bytes_written;
  if (releases != chunks.size() || !spool.drained()) {
    std::fprintf(stderr, "drain-compare: shard never drained (%llu/%llu)\n",
                 static_cast<unsigned long long>(releases),
                 static_cast<unsigned long long>(chunks.size()));
    outcome.virtual_ns = -1.0;
  }
  spool.close();
  std::filesystem::remove_all(dir);
  return outcome;
}

/// Host nanoseconds per packet for SegmentWriter to write the drain's
/// packets with one write() per packet and with one write_chunk() per
/// chunk, each the median of five runs.  The writer options are the
/// defaults the drain's spool uses.
struct HostDrain {
  double packet_ns = 0.0;
  double chunk_ns = 0.0;
};

HostDrain time_host_drain(
    const std::filesystem::path& dir,
    const std::vector<net::WirePacket>& packets,
    const std::vector<engines::ChunkCaptureView>& chunks) {
  constexpr int kRepetitions = 5;
  using Clock = std::chrono::steady_clock;
  std::filesystem::create_directories(dir);
  std::uint32_t shard = 0;
  const auto median_ns_per_pkt = [&](const auto& write_all) {
    std::vector<double> runs;
    for (int r = 0; r < kRepetitions; ++r) {
      store::SegmentWriter writer(dir, shard++, {});
      const auto t0 = Clock::now();
      write_all(writer);
      writer.finish();
      const std::chrono::duration<double, std::nano> elapsed =
          Clock::now() - t0;
      runs.push_back(elapsed.count() / static_cast<double>(packets.size()));
    }
    std::nth_element(runs.begin(), runs.begin() + kRepetitions / 2,
                     runs.end());
    return runs[kRepetitions / 2];
  };
  HostDrain host;
  host.packet_ns = median_ns_per_pkt([&](store::SegmentWriter& writer) {
    for (const net::WirePacket& pkt : packets) {
      writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), pkt.seq());
    }
  });
  host.chunk_ns = median_ns_per_pkt([&](store::SegmentWriter& writer) {
    for (const engines::ChunkCaptureView& chunk : chunks) {
      writer.write_chunk(chunk.packets);
    }
  });
  std::filesystem::remove_all(dir);
  return host;
}

/// Segment-touch ratio of a 5-tuple-pinned BPF query over a spool of
/// high-cardinality segments: every segment is past flow_index_cap, so
/// only the footer bloom can prune.
struct SkipOutcome {
  std::uint64_t segments_total = 0;
  std::uint64_t segments_touched = 0;
};

SkipOutcome run_filter_skip(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  constexpr int kSegments = 16;
  constexpr int kFlowsPerSegment = 24;
  store::SegmentWriter::Options options;
  options.flow_index_cap = 4;  // force beyond-cap indexes
  options.segment_max_span = Nanos::from_millis(1.0);
  store::SegmentWriter writer{dir, 0, options};
  std::uint64_t id = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    const Nanos base = Nanos::from_millis(10.0 * seg);  // span-rotates
    for (int f = 0; f < kFlowsPerSegment; ++f) {
      const int n = seg * kFlowsPerSegment + f;
      const net::FlowKey flow{
          net::Ipv4Addr{10, 1, static_cast<std::uint8_t>(n >> 8),
                        static_cast<std::uint8_t>(n & 0xFF)},
          net::Ipv4Addr{10, 2, 0, 1},
          static_cast<std::uint16_t>(10'000 + (n & 0xFFF)), 53,
          net::IpProto::kUdp};
      const auto pkt = net::WirePacket::make(base + Nanos{1'000LL * f}, flow,
                                             128, id);
      writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), id);
      ++id;
    }
  }
  writer.finish();

  store::StoreReader reader{dir};
  // Pin the 5-tuple of the last segment's last flow: only that segment
  // should be opened.
  const int target = kSegments * kFlowsPerSegment - 1;
  char filter[160];
  std::snprintf(filter, sizeof(filter),
                "src host 10.1.%d.%d and dst host 10.2.0.1 and "
                "src port %d and dst port 53 and udp",
                target >> 8, target & 0xFF, 10'000 + (target & 0xFFF));
  store::StoreQuery query;
  query.filter = filter;
  const auto stats = reader.read_merged(
      query, [](const net::PcapngRecord&, std::uint32_t) {});

  SkipOutcome outcome;
  outcome.segments_total = stats.segments_total;
  outcome.segments_touched = stats.segments_total -
                             stats.segments_skipped_time -
                             stats.segments_skipped_flow -
                             stats.segments_skipped_filter;
  std::filesystem::remove_all(dir);
  return outcome;
}

int run_drain_compare(const std::string& out_path) {
  constexpr std::uint64_t kChunks = 64;
  constexpr std::uint32_t kCells = 64;
  constexpr double kTarget = 1.5;

  title("spool drain: vectored multi-outstanding vs packet-at-a-time");
  std::vector<net::WirePacket> packets = drain_packets(kChunks, kCells);
  const std::vector<engines::ChunkCaptureView> chunks =
      drain_chunks(packets, kCells);
  const DrainOutcome vectored = run_drain(
      bench_dir("drain-vectored"), /*vectored=*/true,
      sim::CostModel{}.disk_queue_depth, chunks);
  const DrainOutcome scalar = run_drain(
      bench_dir("drain-scalar"), /*vectored=*/false, /*depth=*/1, chunks);
  if (vectored.virtual_ns <= 0.0 || scalar.virtual_ns <= 0.0) return 2;

  const double vectored_mbps = static_cast<double>(vectored.bytes) /
                               vectored.virtual_ns * 1e3;
  const double scalar_mbps = static_cast<double>(scalar.bytes) /
                             scalar.virtual_ns * 1e3;
  const double speedup = scalar.virtual_ns / vectored.virtual_ns;
  const bool meets_target = speedup >= kTarget;
  std::printf("  packet-at-a-time, depth 1: %8.1f MB/s (%.0f us)\n",
              scalar_mbps, scalar.virtual_ns / 1e3);
  std::printf("  vectored, cost-model depth: %7.1f MB/s (%.0f us)\n",
              vectored_mbps, vectored.virtual_ns / 1e3);
  std::printf("  drain speedup: %.2fx (target %.1fx)\n", speedup, kTarget);

  // Host clock: varies run to run, so it goes to stderr and the host_*
  // JSON fields, never into the deterministic stdout.
  const HostDrain host =
      time_host_drain(bench_dir("drain-host"), packets, chunks);
  const double host_speedup = host.packet_ns / host.chunk_ns;
  std::fprintf(stderr,
               "  host clock: write() %.1f ns/pkt, write_chunk() %.1f "
               "ns/pkt, %.2fx\n",
               host.packet_ns, host.chunk_ns, host_speedup);

  title("bloom filter-skip: 5-tuple-pinned query over 16 over-cap segments");
  const SkipOutcome skip = run_filter_skip(bench_dir("filter-skip"));
  const double touch_ratio =
      skip.segments_total
          ? static_cast<double>(skip.segments_touched) /
                static_cast<double>(skip.segments_total)
          : 1.0;
  std::printf("  touched %llu of %llu segments (ratio %.3f)\n",
              static_cast<unsigned long long>(skip.segments_touched),
              static_cast<unsigned long long>(skip.segments_total),
              touch_ratio);

  {
    std::ofstream out{out_path};
    out << "{\n"
        << "  \"benchmark\": \"spool_drain\",\n"
        << "  \"chunks\": " << kChunks << ",\n"
        << "  \"cells_per_chunk\": " << kCells << ",\n"
        << "  \"scalar_drain_ns\": " << scalar.virtual_ns << ",\n"
        << "  \"vectored_drain_ns\": " << vectored.virtual_ns << ",\n"
        << "  \"scalar_drain_mbps\": " << scalar_mbps << ",\n"
        << "  \"vectored_drain_mbps\": " << vectored_mbps << ",\n"
        << "  \"drain_speedup\": " << speedup << ",\n"
        << "  \"target_speedup\": " << kTarget << ",\n"
        << "  \"meets_target\": " << (meets_target ? "true" : "false")
        << ",\n"
        << "  \"host_packet_write_ns_per_pkt\": " << host.packet_ns << ",\n"
        << "  \"host_chunk_write_ns_per_pkt\": " << host.chunk_ns << ",\n"
        << "  \"host_drain_speedup\": " << host_speedup << ",\n"
        << "  \"filter_skip_segments_total\": " << skip.segments_total
        << ",\n"
        << "  \"filter_skip_segments_touched\": " << skip.segments_touched
        << ",\n"
        << "  \"filter_skip_touch_ratio\": " << touch_ratio << "\n"
        << "}\n";
  }
  std::printf("drain-compare: speedup %.2fx, touch ratio %.3f -> %s\n",
              speedup, touch_ratio, out_path.c_str());
  if (!meets_target) {
    std::fprintf(stderr,
                 "drain-compare: FAIL — vectored drain below %.1fx\n",
                 kTarget);
    return 1;
  }
  return 0;
}

int run(const apps::TelemetryFlags& flags) {
  title("capture-to-disk spool: backpressure policies, shard 0 disk 25x slow");
  std::printf("  %-12s %10s %12s %12s %10s %10s\n", "policy", "written",
              "MB/s(disk)", "dropped", "offloaded", "stalls");
  for (const auto policy :
       {store::BackpressurePolicy::kBlock,
        store::BackpressurePolicy::kDropNewest,
        store::BackpressurePolicy::kDropOldest}) {
    // The last policy run wins the --metrics-out file; each publishes
    // the same store.shard<N>.* metric names.
    const SpoolRun r = run_spool(policy, 25.0, &flags);
    const double mb_per_s =
        static_cast<double>(r.stats.bytes_written) / r.seconds / 1e6;
    std::printf("  %-12s %10llu %12.1f %12llu %10llu %10llu\n",
                to_string(policy),
                static_cast<unsigned long long>(r.stats.packets_written),
                mb_per_s,
                static_cast<unsigned long long>(
                    r.stats.packets_dropped_newest +
                    r.stats.packets_dropped_oldest),
                static_cast<unsigned long long>(r.offloaded),
                static_cast<unsigned long long>(r.stats.full_stalls));
  }

  title("offload feedback: queue 0's shard disk slowed 50x (policy=block)");
  const SpoolRun fast = run_spool(store::BackpressurePolicy::kBlock, 1.0,
                                  nullptr);
  const SpoolRun slow = run_spool(store::BackpressurePolicy::kBlock, 50.0,
                                  nullptr);
  std::printf("  healthy disk: offloaded=%llu drop=%s\n",
              static_cast<unsigned long long>(fast.offloaded),
              percent(fast.result.drop_rate()).c_str());
  std::printf("  slow shard 0: offloaded=%llu drop=%s\n",
              static_cast<unsigned long long>(slow.offloaded),
              percent(slow.result.drop_rate()).c_str());
  note("the spool backlog feeds effective load, so a slow disk pushes its");
  note("queue over T and buddy capture threads absorb the chunks");
  if (slow.offloaded == 0) {
    std::printf("UNEXPECTED: slow disk never engaged offloading\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wirecap::bench

int main(int argc, char** argv) {
  const int code = [&] {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--drain-compare" || arg.starts_with("--drain-compare=")) {
        const auto eq = arg.find('=');
        const std::string out{eq == std::string_view::npos
                                  ? std::string_view{"BENCH_spool.json"}
                                  : arg.substr(eq + 1)};
        return wirecap::bench::run_drain_compare(out);
      }
    }
    return wirecap::bench::telemetry_main(argc, argv, wirecap::bench::run);
  }();
  std::error_code ec;
  std::filesystem::remove_all(wirecap::bench::bench_root(), ec);
  return code;
}
