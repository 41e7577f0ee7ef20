// Latency-vs-throughput sweep over the chunk-journey pipeline: offered
// load stepped as a fraction of the 64-byte wire rate, in two receive
// modes —
//
//   nonblocking: the harness fabric over the engine's lock-free
//                SPSC-ring/steal-inbox handoff, the pkt_handler kicked
//                as each chunk lands;
//   polling:     an application draining try_next_batch() on a fixed
//                20 us timer regardless of arrivals, trading CPU for
//                the poll-period latency floor.
//
// Per point it reports end-to-end and per-stage percentiles from the
// LatencyTracker (chunk-journey spans, virtual time) next to the drop
// rate, and writes the whole sweep to BENCH_latency.json (override
// with --out=FILE).  --mode=NAME restricts the sweep to one mode.
// Accepts the standard --metrics-out/--trace-out flags; the last run
// wins those files.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/harness.hpp"
#include "bench/bench_util.hpp"
#include "nic/wire.hpp"
#include "telemetry/latency.hpp"

namespace wirecap::bench {
namespace {

using Stage = telemetry::LatencyTracker::Stage;

constexpr std::uint64_t kPackets = 100'000;
constexpr double kLinkBps = 10e9;
constexpr Nanos kPollInterval = Nanos::from_micros(20);

struct SweepPoint {
  std::string mode;
  double load = 0.0;
  double offered_pps = 0.0;
  std::uint64_t delivered = 0;
  double drop_rate = 0.0;
  double e2e_p50 = 0.0;
  double e2e_p99 = 0.0;
  double e2e_p999 = 0.0;
  double capture_p99 = 0.0;
  double queue_wait_p99 = 0.0;
  double deliver_p99 = 0.0;
};

void fill_percentiles(SweepPoint& point,
                      const telemetry::LatencyTracker& latency) {
  point.e2e_p50 = latency.stage_quantile(0, Stage::kE2e, 0.50);
  point.e2e_p99 = latency.stage_quantile(0, Stage::kE2e, 0.99);
  point.e2e_p999 = latency.stage_quantile(0, Stage::kE2e, 0.999);
  point.capture_p99 = latency.stage_quantile(0, Stage::kCapture, 0.99);
  point.queue_wait_p99 = latency.stage_quantile(0, Stage::kQueueWait, 0.99);
  point.deliver_p99 = latency.stage_quantile(0, Stage::kDeliver, 0.99);
}

trace::ConstantRateConfig traffic_at(double load) {
  trace::ConstantRateConfig config;
  config.packet_count = kPackets;
  config.frame_bytes = 64;
  config.link_bits_per_second = load * kLinkBps;
  Xoshiro256 rng{0x1A7E};
  config.flows = {trace::flow_for_queue(rng, 0, 1)};
  return config;
}

/// Nonblocking mode: the full Experiment harness (pkt_handler driven by
/// batch delivery).
SweepPoint run_harness(double load, const apps::TelemetryFlags* flags) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapBasic;
  config.engine.cells_per_chunk = 64;
  config.engine.chunk_count = 64;
  config.num_queues = 1;
  config.x = 0;
  if (flags) flags->apply(config);
  config.telemetry.latency = true;
  apps::Experiment experiment{config};

  trace::ConstantRateSource source{traffic_at(load)};
  const Nanos horizon = Nanos::from_seconds(
      static_cast<double>(kPackets) / source.rate().per_second() + 0.05);
  const apps::ExperimentResult result = experiment.run(source, horizon);
  if (flags) flags->write(experiment.telemetry());

  SweepPoint point;
  point.mode = "nonblocking";
  point.load = load;
  point.offered_pps = source.rate().per_second();
  point.delivered = result.delivered;
  point.drop_rate = result.drop_rate();
  fill_percentiles(point, experiment.telemetry().latency);
  return point;
}

/// Polling mode: a hand-built fabric whose application drains the
/// batch API on a fixed timer.
SweepPoint run_polling(double load) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 1;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  apps::EngineParams engine_params;
  engine_params.cells_per_chunk = 64;
  engine_params.chunk_count = 64;
  auto engine = apps::make_engine(engine_params, scheduler, nic,
                                  sim::CostModel{});
  telemetry::Telemetry telemetry;
  telemetry.latency.set_enabled(true);
  engine->bind_telemetry(telemetry, "bench", 1);
  sim::SimCore app_core{scheduler, 0};
  engine->open(0, app_core);

  trace::ConstantRateSource source{traffic_at(load)};
  const double offered_pps = source.rate().per_second();
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  const Nanos horizon = Nanos::from_seconds(
      static_cast<double>(kPackets) / offered_pps + 0.05);
  std::uint64_t delivered = 0;
  engines::PacketBatch batch;
  // The fixed-cadence poll loop: drain whatever is queued, sleep the
  // poll period, repeat — arrivals never wake it early.
  std::function<void()> poll = [&] {
    while (engine->try_next_batch(0, engine_params.cells_per_chunk, batch) >
           0) {
      delivered += batch.views.size();
      engine->done_batch(0, batch);
    }
    if (scheduler.now() < horizon) {
      scheduler.schedule_after(kPollInterval, poll);
    }
  };
  scheduler.schedule_at(Nanos::zero(), poll);
  scheduler.run_until(horizon);
  engine->close(0);

  SweepPoint point;
  point.mode = "polling";
  point.load = load;
  point.offered_pps = offered_pps;
  point.delivered = delivered;
  point.drop_rate =
      1.0 - static_cast<double>(delivered) / static_cast<double>(kPackets);
  fill_percentiles(point, telemetry.latency);
  return point;
}

void write_json(const std::string& path,
                const std::vector<SweepPoint>& points) {
  std::ofstream out{path};
  out << "{\n"
      << "  \"benchmark\": \"latency_sweep\",\n"
      << "  \"packets_per_point\": " << kPackets << ",\n"
      << "  \"link_bits_per_second\": " << kLinkBps << ",\n"
      << "  \"poll_interval_ns\": " << kPollInterval.count() << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"load\": %.2f, "
                  "\"offered_pps\": %.0f, \"delivered\": %llu, "
                  "\"drop_rate\": %.6f, \"e2e_p50_ns\": %.0f, "
                  "\"e2e_p99_ns\": %.0f, \"e2e_p999_ns\": %.0f, "
                  "\"capture_p99_ns\": %.0f, \"queue_wait_p99_ns\": %.0f, "
                  "\"deliver_p99_ns\": %.0f}%s\n",
                  p.mode.c_str(), p.load, p.offered_pps,
                  static_cast<unsigned long long>(p.delivered), p.drop_rate,
                  p.e2e_p50, p.e2e_p99, p.e2e_p999, p.capture_p99,
                  p.queue_wait_p99, p.deliver_p99,
                  i + 1 < points.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int run(const apps::TelemetryFlags& flags, const std::string& out_path,
        const std::string& mode_filter) {
  const std::vector<double> loads = {0.2, 0.5, 0.8, 0.95};
  std::vector<SweepPoint> points;

  title("latency vs load: chunk-journey percentiles per receive mode");
  std::printf("  %-11s %5s %11s %9s %9s %9s %9s %9s\n", "mode", "load",
              "drop", "e2e p50", "e2e p99", "e2e p999", "qwait p99",
              "deliver99");
  for (const std::string_view mode : {"nonblocking", "polling"}) {
    if (!mode_filter.empty() && mode != mode_filter) continue;
    for (const double load : loads) {
      const SweepPoint point = mode == "nonblocking"
                                   ? run_harness(load, &flags)
                                   : run_polling(load);
      std::printf("  %-11s %5.2f %11s %7.1fus %7.1fus %7.1fus %7.1fus "
                  "%7.1fus\n",
                  point.mode.c_str(), point.load,
                  percent(point.drop_rate).c_str(), point.e2e_p50 / 1000.0,
                  point.e2e_p99 / 1000.0, point.e2e_p999 / 1000.0,
                  point.queue_wait_p99 / 1000.0, point.deliver_p99 / 1000.0);
      if (point.delivered == 0 || point.e2e_p50 <= 0.0) {
        std::fprintf(stderr, "bench_latency: %s at load %.2f produced no "
                             "journeys\n",
                     point.mode.c_str(), point.load);
        return 1;
      }
      points.push_back(point);
    }
  }
  note("nonblocking rides the SPSC ring; polling pays the 20us timer "
       "floor");
  write_json(out_path, points);
  std::printf("  -> %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace wirecap::bench

int main(int argc, char** argv) {
  std::string out_path = "BENCH_latency.json";
  std::string mode_filter;  // empty = all modes
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode_filter = std::string(arg.substr(7));
    } else if (arg == "--mode" && i + 1 < argc) {
      mode_filter = argv[++i];
    }
  }
  if (!mode_filter.empty() && mode_filter != "nonblocking" &&
      mode_filter != "polling") {
    std::fprintf(stderr,
                 "bench_latency: unknown --mode '%s' (expected nonblocking "
                 "or polling)\n",
                 mode_filter.c_str());
    return 2;
  }
  wirecap::apps::TelemetryFlags flags;
  try {
    flags = wirecap::apps::parse_telemetry_flags(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_latency: %s\n", e.what());
    return 2;
  }
  return wirecap::bench::run(flags, out_path, mode_filter);
}
