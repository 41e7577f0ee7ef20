// wirecap_bench: runs one benchmark workload and prints its metrics.
//
//   wirecap_bench --workload=W --seed=S [--seconds=T] [--scratch=DIR]
//                 [--traced [--trace-out=FILE]] [--calibrate]
//
// Untraced (default): end-to-end metrics.  Traffic is generated from the
// seed first; set-up is timed over repeated experiment constructions; then
// one warm-up pass at a quarter size and timed passes (at least five,
// until T seconds of run() time) on fresh experiments.  Host times are
// reported as the median of the better half of their samples, scaled to
// a fixed host speed by a reference loop timed around the passes.
//
// --traced: per-layer metrics from an instrumented pass of the same
// fabric, plus the same spans over the workload's packets in the consumer
// modes the workload does not use, plus isolated layer probes.
//
// --calibrate: measured host cost of the CostModel constants that model
// this repo's own code, beside the assumed values.
//
// Every metric is printed as "name value unit clock", then one JSON
// object holding the same metrics and the correctness verdict.  The clock
// is host (steady_clock wall time of this repo's code) or virtual
// (simulated nanoseconds, or a count or ratio of the simulation; virtual
// values are deterministic for a seed).  Exits 1 when a correctness check
// fails.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fabric.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace wirecap::benchmark {
namespace {

/// Set-up is timed at least kMinSetups times and until kSetupSeconds of
/// construction time: page-fault cost on a shared host varies more from
/// one construction to the next than run() time does.
constexpr std::size_t kMinSetups = 9;
constexpr std::size_t kMaxSetups = 60;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinPasses = 5;
constexpr std::size_t kMaxPasses = 60;
/// Spool passes followed by the two store queries.
constexpr std::size_t kQueryPasses = 3;
/// Packets the traced run replays through each other consumer mode.
constexpr std::uint64_t kComplementPackets = 500'000;
/// Packets the isolated probes replay.
constexpr std::uint64_t kProbePackets = 1u << 18;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::filesystem::path scratch = ".bench_build/run";
  bool traced = false;
  bool calibrate = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    const auto take = [&](std::string_view flag) {
      if (!arg.starts_with(flag)) return false;
      value = arg.substr(flag.size());
      return true;
    };
    if (take("--workload=")) {
      opt.workload = value;
    } else if (take("--seed=")) {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (take("--seconds=")) {
      opt.seconds = std::stod(value);
    } else if (take("--scratch=")) {
      opt.scratch = value;
    } else if (take("--trace-out=")) {
      opt.trace_out = value;
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--calibrate") {
      opt.calibrate = true;
    } else {
      throw std::invalid_argument("unknown argument: " + std::string(arg));
    }
  }
  if (opt.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload=NAME and --seed=N are required");
  }
  return opt;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Median of the better half of `values` (the upper quartile for a rate,
/// the lower quartile for a time).  On a shared host, interference from
/// other tenants only ever slows a pass, and slow spells last seconds; the
/// better half is the part of the run that measured this program rather
/// than its neighbours.
double better_half_median(std::vector<double> values, bool higher_is_better) {
  if (higher_is_better) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize((values.size() + 1) / 2);
  return median(std::move(values));
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

enum class ClockKind { kHost, kVirtual };

const char* clock_name(ClockKind clock) {
  return clock == ClockKind::kHost ? "host" : "virtual";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  ClockKind clock;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, ClockKind clock) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), clock});
  }

  /// Prints the metric lines and the JSON object; returns the exit code.
  int print(const Options& opt, const char* mode, std::uint64_t attempted,
            std::uint64_t failed, const std::string& digest) const {
    for (const Metric& m : metrics_) {
      std::printf("%s %.9g %s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  clock_name(m.clock));
    }
    for (const std::string& e : errors) {
      std::fprintf(stderr, "correctness: %s\n", e.c_str());
    }
    const bool ok = errors.empty();
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"mode\":\"%s\","
                "\"ok\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"digest\":\"%s\",\"errors\":[",
                json_escape(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), mode,
                ok ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), digest.c_str());
    for (std::size_t i = 0; i < errors.size(); ++i) {
      std::printf("%s\"%s\"", i ? "," : "", json_escape(errors[i]).c_str());
    }
    std::printf("],\"metrics\":{");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"clock\":\"%s\"}",
                  i ? "," : "", m.name.c_str(), m.value, m.unit.c_str(),
                  clock_name(m.clock));
    }
    std::printf("}}\n");
    return ok ? 0 : 1;
  }

  std::vector<std::string> errors;

 private:
  std::vector<Metric> metrics_;
};

std::string digest_of(const Outcome& outcome) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(outcome.digest())));
  return buf;
}

void add_virtual_end_to_end(Report& report, const Outcome& o) {
  report.add("drop_pct", o.drop_pct(), "%", ClockKind::kVirtual);
  if (o.latency_samples == 0) return;
  report.add("latency_p50_us", o.latency_p50_ns / 1e3, "us",
             ClockKind::kVirtual);
  report.add("latency_p99_us", o.latency_p99_ns / 1e3, "us",
             ClockKind::kVirtual);
  report.add("latency_p999_us", o.latency_p999_ns / 1e3, "us",
             ClockKind::kVirtual);
  report.add("latency_samples", static_cast<double>(o.latency_samples), "count",
             ClockKind::kVirtual);
}

int untraced(const Options& opt, const WorkloadSpec& spec,
             const Traffic& traffic, const std::filesystem::path& spool_dir) {
  Report report;
  // Host speed: the reference loop at the start, before each timed pass
  // and after the last.  Its median over the run, against its nominal
  // time, scales the host metrics to a fixed host speed; slow spells
  // caused by other tenants slow the loop and the program alike.
  std::vector<double> reference{reference_loop_ns()};
  std::vector<double> setups;
  double setup_total_s = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total_s < kSetupSeconds && setups.size() < kMaxSetups)) {
    setups.push_back(time_setup(spec, spool_dir));
    setup_total_s += setups.back();
    std::filesystem::remove_all(spool_dir);
  }

  const PassResult warmup =
      run_untraced(spec, traffic, traffic.size() / 4, spool_dir);
  check_outcome(spec, warmup.outcome, report.errors);
  std::filesystem::remove_all(spool_dir);

  std::vector<PassResult> passes;
  std::vector<QueryResult> queries;
  double measured_s = 0.0;
  while (passes.size() < kMinPasses ||
         (measured_s < opt.seconds && passes.size() < kMaxPasses)) {
    reference.push_back(reference_loop_ns());
    PassResult pass = run_untraced(spec, traffic, traffic.size(), spool_dir);
    measured_s += pass.run_s;
    const double pass_mpps =
        static_cast<double>(pass.outcome.result.sent) / pass.run_s / 1e6;
    std::fprintf(stderr, "pass %zu: %.3f s, %.4f Mpps\n", passes.size(),
                 pass.run_s, pass_mpps);
    check_outcome(spec, pass.outcome, report.errors);
    if (spec.consumer == Consumer::kSpool && queries.size() < kQueryPasses) {
      queries.push_back(run_queries(spool_dir, traffic, traffic.size(),
                                    pass.outcome, report.errors));
    }
    std::filesystem::remove_all(spool_dir);
    if (!passes.empty() &&
        pass.outcome.digest() != passes.front().outcome.digest()) {
      report.errors.push_back("timed passes disagree on virtual outputs");
    }
    passes.push_back(std::move(pass));
  }
  reference.push_back(reference_loop_ns());
  const double slowdown = median(reference) / kReferenceLoopNs;

  std::vector<double> mpps;
  std::vector<double> mem;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    mpps.push_back(static_cast<double>(p.outcome.result.sent) / p.run_s / 1e6);
    mem.push_back(p.mem_mb);
    attempted += p.outcome.result.sent;
    failed += p.outcome.result.capture_dropped +
              p.outcome.result.delivery_dropped;
  }
  const double raw_mpps = better_half_median(mpps, true);
  const double raw_setup = better_half_median(setups, false);
  report.add("sim_mpps", raw_mpps * slowdown, "Mpps", ClockKind::kHost);
  report.add("setup_s", raw_setup / slowdown, "s", ClockKind::kHost);
  report.add("mem_mb", median(mem), "MB", ClockKind::kHost);
  add_virtual_end_to_end(report, passes.front().outcome);
  if (!queries.empty()) {
    std::vector<double> read;
    for (const QueryResult& q : queries) {
      read.push_back(static_cast<double>(q.scanned) / q.read_s / 1e6);
    }
    report.add("read_mpps", better_half_median(read, true) * slowdown, "Mpps",
               ClockKind::kHost);
  }
  report.add("sim_mpps_unscaled", raw_mpps, "Mpps", ClockKind::kHost);
  report.add("setup_s_unscaled", raw_setup, "s", ClockKind::kHost);
  report.add("host.reference_loop_ns", median(reference), "ns",
             ClockKind::kHost);
  report.add("passes", static_cast<double>(passes.size()), "count",
             ClockKind::kHost);
  report.add("measured_s", measured_s, "s", ClockKind::kHost);
  return report.print(opt, "untraced", attempted, failed,
                      digest_of(passes.front().outcome));
}

/// One instrumented fabric of the traced run.
struct TracedFabricRun {
  Consumer consumer = Consumer::kHandler;
  std::unique_ptr<SpanRecorder> recorder;
  TracedPass pass;
  std::optional<QueryResult> query;
};

int traced(const Options& opt, const WorkloadSpec& spec, const Traffic& traffic,
           const std::filesystem::path& spool_dir) {
  Report report;
  const PassResult warmup =
      run_untraced(spec, traffic, traffic.size() / 4, spool_dir);
  check_outcome(spec, warmup.outcome, report.errors);
  std::filesystem::remove_all(spool_dir);

  const PassResult reference =
      run_untraced(spec, traffic, traffic.size(), spool_dir);
  check_outcome(spec, reference.outcome, report.errors);
  std::filesystem::remove_all(spool_dir);

  // The workload's own fabric first, then its packets through the
  // consumer modes it does not use, so every layer has numbers.
  std::vector<TracedFabricRun> runs;
  for (const Consumer consumer : {spec.consumer, Consumer::kHandler,
                                  Consumer::kPipeline, Consumer::kSpool}) {
    if (!runs.empty() && consumer == spec.consumer) continue;
    const bool own = runs.empty();
    WorkloadSpec variant = spec;
    variant.consumer = consumer;
    const std::uint64_t limit =
        own ? traffic.size() : std::min(traffic.size(), kComplementPackets);
    TracedFabricRun run;
    run.consumer = consumer;
    run.recorder = std::make_unique<SpanRecorder>();
    run.pass = run_traced(variant, traffic, limit, spool_dir, *run.recorder);
    check_outcome(variant, run.pass.outcome, report.errors);
    if (consumer == Consumer::kSpool) {
      run.query = run_queries(spool_dir, traffic, limit, run.pass.outcome,
                              report.errors);
    }
    std::filesystem::remove_all(spool_dir);
    runs.push_back(std::move(run));
  }
  const TracedFabricRun& own = runs.front();
  if (own.pass.outcome.digest() != reference.outcome.digest()) {
    report.errors.push_back(
        "traced pass outputs differ from the untraced pass: traced " +
        own.pass.outcome.digest() + " untraced " + reference.outcome.digest());
  }
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    own.recorder->write_chrome_trace(out);
    if (!out) report.errors.push_back("cannot write " + opt.trace_out);
  }

  const ProbeResults probes = run_probes(
      traffic.sample(std::min(traffic.size(), kProbePackets)),
      spool_dir.string() + "-probe");

  const Outcome& o = own.pass.outcome;
  const auto ratio = [](auto num, auto den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const auto host = [&](const char* name, double value, const char* unit) {
    report.add(name, value, unit, ClockKind::kHost);
  };
  const auto virt = [&](const char* name, double value, const char* unit) {
    report.add(name, value, unit, ClockKind::kVirtual);
  };
  const auto probe = [&](const char* name) {
    host(name, probes.metrics.at(name), "ns");
  };
  // Self ns per item of `span`, from the first fabric that recorded it.
  const auto span = [&](const char* name, const char* span_name) {
    for (const TracedFabricRun& run : runs) {
      const SpanRecorder::Aggregate agg = run.recorder->aggregate(span_name);
      if (agg.items > 0) return host(name, ratio(agg.self_ns, agg.items), "ns");
    }
    report.errors.push_back(std::string("no fabric recorded ") + span_name);
  };
  const auto fabric = [&](Consumer consumer) -> const TracedFabricRun& {
    for (const TracedFabricRun& run : runs) {
      if (run.consumer == consumer) return run;
    }
    throw std::logic_error("missing fabric");
  };

  span("trace.next_ns_per_pkt", "trace.next");
  span("nic.receive_ns_per_pkt", "nic.receive");
  virt("nic.fifo_buffered_ratio", ratio(o.fifo_buffered, o.result.sent),
       "ratio");

  const SpanRecorder::Aggregate step = own.recorder->aggregate("sim.step");
  const std::uint64_t markers = step.count - own.pass.events;
  virt("sim.events_per_pkt", ratio(own.pass.events, o.result.sent), "count");
  host("sim.step_self_ns_per_pkt", ratio(step.self_ns, o.result.sent), "ns");
  virt("sim.idle_step_ratio", ratio(step.leaves - markers, own.pass.events),
       "ratio");
  probe("sim.empty_event_ns");

  span("core.try_next_batch_ns_per_pkt", "core.try_next_batch");
  span("core.done_batch_ns_per_pkt", "core.done_batch");
  span("core.try_next_chunk_ns_per_pkt", "core.try_next_chunk");
  span("core.done_chunk_ns_per_pkt", "core.done_chunk");
  span("core.add_batch_shares_ns_per_pkt", "core.add_batch_shares");
  const TracedFabricRun& batching =
      own.pass.batch_calls > 0 ? own : fabric(Consumer::kHandler);
  virt("core.batch_pkts",
       ratio(batching.recorder->aggregate("core.try_next_batch").items,
             batching.pass.batch_hits),
       "count");
  virt("core.batch_hit_ratio",
       ratio(batching.pass.batch_hits, batching.pass.batch_calls), "ratio");
  const std::uint64_t chunks = o.chunks_captured + o.partial_rescues;
  virt("core.offload_ratio", ratio(o.chunks_offloaded, chunks), "ratio");
  virt("core.handoff_fallback_ratio", ratio(o.handoff_fallbacks, chunks),
       "ratio");
  virt("core.capture_queue_high_water",
       static_cast<double>(o.capture_queue_high_water), "chunks");
  virt("core.pending_high_water", static_cast<double>(o.pending_high_water),
       "chunks");
  virt("core.pool_mb", ratio(o.pool_bytes, 1u << 20), "MB");
  virt("driver.partial_rescue_ratio", ratio(o.partial_rescues, chunks),
       "ratio");
  probe("driver.capture_recycle_ns_per_pkt");

  probe("bpf.run_batch_ns_per_pkt");
  probe("bpf.run_ns_per_pkt");

  span("pipeline.filter.ns_per_pkt", "pipeline.filter");
  span("pipeline.sample.ns_per_pkt", "pipeline.sample");
  span("pipeline.aggregate.ns_per_pkt", "pipeline.aggregate");
  const Outcome& piped = fabric(Consumer::kPipeline).pass.outcome;
  virt("pipeline.filter.pass_ratio",
       ratio(piped.stage_out.at(0), piped.stage_in.at(0)), "ratio");
  virt("pipeline.sample.pass_ratio",
       ratio(piped.stage_out.at(1), piped.stage_in.at(1)), "ratio");
  span("pipeline.fanout_offer_ns_per_pkt", "pipeline.fanout_offer");
  span("pipeline.subscriber_ns_per_pkt", "pipeline.subscriber");

  const TracedFabricRun& spooled = fabric(Consumer::kSpool);
  span("store.offer_ns_per_pkt", "store.offer");
  probe("store.write_chunk_ns_per_pkt");
  probe("store.write_ns_per_pkt");
  virt("store.bytes_per_pkt",
       ratio(spooled.pass.outcome.bytes_written,
             spooled.pass.outcome.packets_written),
       "B");
  const QueryResult& query = *spooled.query;
  host("store.reader_open_s", query.open_s, "s");
  host("store.read_ns_per_record", ratio(query.read_s * 1e9, query.scanned),
       "ns");
  virt("store.segments_skipped_ratio",
       ratio(query.segments_skipped, query.segments), "ratio");

  probe("common.spsc_ns");
  probe("common.spsc_cross_core_ns");
  probe("common.steal_inbox_ns");
  probe("common.mpmc_ns");

  const double wall_s = static_cast<double>(own.pass.wall_ns) / 1e9;
  host("tracing.overhead_pct", 100.0 * (wall_s / reference.run_s - 1.0), "%");
  const double coverage =
      ratio(own.recorder->total_self_ns(), own.pass.wall_ns);
  host("tracing.coverage_ratio", coverage, "ratio");
  if (std::abs(coverage - 1.0) > 0.02) {
    report.errors.push_back("spans account for " + std::to_string(coverage) +
                            " of the traced wall time (need within 2%)");
  }

  return report.print(opt, "traced", o.result.sent,
                      o.result.capture_dropped + o.result.delivery_dropped,
                      digest_of(o));
}

int calibrate(const Traffic& traffic, const std::filesystem::path& spool_dir) {
  const ProbeResults probes = run_probes(
      traffic.sample(std::min(traffic.size(), kProbePackets)),
      spool_dir.string() + "-probe");
  for (const auto& [name, value] : probes.metrics) {
    std::printf("%s %.9g ns host\n", name.c_str(), value);
  }
  print_calibration(probes, stdout);
  return 0;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadSpec spec = workload(opt.workload);
  std::filesystem::create_directories(opt.scratch);
  const std::filesystem::path spool_dir =
      opt.scratch / (opt.workload + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(spool_dir);

  const Traffic traffic(spec, opt.seed);
  int code = 0;
  if (opt.calibrate) {
    code = calibrate(traffic, spool_dir);
  } else if (opt.traced) {
    code = traced(opt, spec, traffic, spool_dir);
  } else {
    code = untraced(opt, spec, traffic, spool_dir);
  }
  std::filesystem::remove_all(spool_dir);
  return code;
}

}  // namespace
}  // namespace wirecap::benchmark

int main(int argc, char** argv) {
  try {
    return wirecap::benchmark::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirecap_bench: %s\n", e.what());
    return 2;
  }
}
