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
// segment-touch ratio.
//
// Accepts --metrics-out/--trace-out; the CI job uploads the metrics
// JSON as a build artifact.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
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

/// Virtual nanoseconds for one shard to drain `chunk_count` identical
/// chunks, offered up front at t=0.  Deterministic: the simulation
/// clock is the only clock involved.
struct DrainOutcome {
  double virtual_ns = 0.0;
  std::uint64_t bytes = 0;
};

DrainOutcome run_drain(const std::filesystem::path& dir, bool vectored,
                       unsigned depth, std::uint64_t chunk_count,
                       std::uint32_t cells_per_chunk) {
  std::filesystem::create_directories(dir);
  sim::Scheduler scheduler;
  sim::CostModel costs;
  store::SpoolConfig config;
  config.dir = dir;
  config.vectored_drain = vectored;
  config.disk_queue_depth = depth;
  config.queue_capacity_chunks = chunk_count * 2;
  store::Spool spool{scheduler, costs, config};

  std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
  Nanos last_release = Nanos::zero();
  std::uint64_t releases = 0;
  for (std::uint64_t c = 0; c < chunk_count; ++c) {
    engines::ChunkCaptureView chunk;
    chunk.source_ring = 0;
    for (std::uint32_t i = 0; i < cells_per_chunk; ++i) {
      const std::uint64_t seq = c * cells_per_chunk + i;
      const auto pkt = net::WirePacket::make(
          Nanos{static_cast<std::int64_t>(seq)},
          net::FlowKey{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                       4000, 53, net::IpProto::kUdp},
          256, seq);
      storage.push_back(std::make_unique<std::vector<std::byte>>(
          pkt.bytes().begin(), pkt.bytes().end()));
      engines::CaptureView view;
      view.bytes = std::span<std::byte>(*storage.back());
      view.wire_len = pkt.wire_len();
      view.timestamp = pkt.timestamp();
      view.seq = seq;
      chunk.packets.push_back(view);
    }
    spool.shard(0).offer(std::move(chunk),
                         [&](const engines::ChunkCaptureView&) {
                           ++releases;
                           last_release = scheduler.now();
                         });
  }
  scheduler.run_until(Nanos::from_seconds(60.0));
  DrainOutcome outcome;
  outcome.virtual_ns = static_cast<double>(last_release.count());
  outcome.bytes = spool.shard(0).stats().bytes_written;
  if (releases != chunk_count || !spool.drained()) {
    std::fprintf(stderr, "drain-compare: shard never drained (%llu/%llu)\n",
                 static_cast<unsigned long long>(releases),
                 static_cast<unsigned long long>(chunk_count));
    outcome.virtual_ns = -1.0;
  }
  spool.close();
  std::filesystem::remove_all(dir);
  return outcome;
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
  const DrainOutcome vectored =
      run_drain(bench_dir("drain-vectored"), /*vectored=*/true, /*depth=*/0,
                kChunks, kCells);
  const DrainOutcome scalar =
      run_drain(bench_dir("drain-scalar"), /*vectored=*/false, /*depth=*/1,
                kChunks, kCells);
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
