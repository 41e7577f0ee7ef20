// trace_tools — a small CLI over the trace and pcap substrates:
//
//   trace_tools generate <out.pcap|out.pcapng> [seconds] [scale]
//       synthesize a border-router trace and write it as a standard
//       .pcap file (nanosecond magic) or, when the extension is
//       .pcapng, a pcapng file — both readable by wireshark/tcpdump
//   trace_tools inspect <in.pcap>
//       print summary statistics: packets, bytes, duration, flows,
//       size histogram, per-queue RSS split
//   trace_tools filter <in.pcap> <out.pcap> <expression>
//       copy packets matching a BPF filter expression
//   trace_tools replay <in.pcap|in.pcapng> [queues] [x] [--spool-dir=DIR]
//       replay the file through the full simulated capture stack
//       (RSS -> NIC -> WireCAP advanced mode -> pkt_handlers) and
//       report per-queue delivery and drops; with --spool-dir the
//       pkt_handlers are replaced by the capture-to-disk spool and the
//       run leaves indexed pcapng segments in DIR
//   trace_tools read-spool <dir> [expression]
//       k-way-merge a spool directory back into global timestamp order,
//       optionally filtered by a BPF expression, and print what the
//       segment indexes let the reader skip
//   trace_tools summarize-latency <trace.json>
//       fold the chunk.journey spans of a Chrome-trace dump (a
//       --trace-out file from a latency-enabled run) into a per-stage
//       latency percentile table — exact offline percentiles, no
//       histogram bucketing
//
// Run with no arguments for a self-contained demo in a temp directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bpf/codegen.hpp"
#include "bpf/disasm.hpp"
#include "bpf/predecode.hpp"
#include "net/pcapfile.hpp"
#include "net/pcapng.hpp"
#include "net/rss.hpp"
#include "apps/harness.hpp"
#include "store/reader.hpp"
#include "store/spool.hpp"
#include "trace/border_router.hpp"
#include "trace/pcap_source.hpp"

using namespace wirecap;

namespace {

bool is_pcapng(const std::string& path) {
  return path.size() > 7 && path.substr(path.size() - 7) == ".pcapng";
}

int cmd_generate(const std::string& path, double seconds, double scale) {
  trace::BorderRouterConfig config;
  config.duration_s = seconds;
  config.scale = scale;
  auto source = trace::make_border_router_source(config);
  std::uint64_t written = 0;
  if (is_pcapng(path)) {
    net::PcapngWriter writer{path};
    while (auto packet = source->next()) writer.write(*packet);
    written = writer.records_written();
  } else {
    net::PcapWriter writer{path};
    while (auto packet = source->next()) writer.write(*packet);
    written = writer.records_written();
  }
  std::printf("wrote %llu packets to %s\n",
              static_cast<unsigned long long>(written), path.c_str());
  return 0;
}

int cmd_inspect(const std::string& path) {
  // Normalize both formats into (timestamp, orig_len, data) records.
  std::vector<net::PcapRecord> records;
  if (is_pcapng(path)) {
    net::PcapngReader reader{path};
    while (auto record = reader.next()) {
      records.push_back(net::PcapRecord{record->timestamp, record->orig_len,
                                        std::move(record->data)});
    }
    std::printf("%s: pcapng, %u interface(s), hardware '%s'\n", path.c_str(),
                reader.interfaces_seen(), reader.hardware().c_str());
  } else {
    net::PcapReader reader{path};
    std::printf("%s: linktype=%u snaplen=%u %s timestamps\n", path.c_str(),
                reader.linktype(), reader.snaplen(),
                reader.nanosecond() ? "nanosecond" : "microsecond");
    records = reader.read_all();
  }

  std::uint64_t packets = 0, bytes = 0;
  Nanos first{}, last{};
  std::unordered_set<net::FlowKey> flows;
  std::map<std::string, std::uint64_t> sizes{
      {"  <=128", 0}, {" <=1024", 0}, {">1024", 0}};
  std::array<std::uint64_t, 6> queues{};

  for (const auto& record_value : records) {
    const auto* record = &record_value;
    if (packets == 0) first = record->timestamp;
    last = record->timestamp;
    ++packets;
    bytes += record->orig_len;
    if (record->orig_len <= 128) {
      ++sizes["  <=128"];
    } else if (record->orig_len <= 1024) {
      ++sizes[" <=1024"];
    } else {
      ++sizes[">1024"];
    }
    if (const auto flow = net::parse_flow(record->data)) {
      flows.insert(*flow);
      ++queues[net::rss_queue(*flow, 6)];
    }
  }
  const double duration = (last - first).seconds();
  std::printf("packets: %llu, bytes: %llu, duration: %.2f s "
              "(%.0f p/s, %.2f Gb/s)\n",
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(bytes), duration,
              duration > 0 ? static_cast<double>(packets) / duration : 0.0,
              duration > 0
                  ? static_cast<double>(bytes) * 8 / duration / 1e9
                  : 0.0);
  std::printf("distinct flows: %zu\n", flows.size());
  std::printf("frame sizes:");
  for (const auto& [bucket, count] : sizes) {
    std::printf("  %s: %llu", bucket.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nRSS split over 6 queues:");
  for (const auto count : queues) {
    std::printf(" %llu", static_cast<unsigned long long>(count));
  }
  std::printf("\n");
  return 0;
}

int cmd_filter(const std::string& in, const std::string& out,
               const std::string& expression) {
  const bpf::Program program = bpf::compile_filter(expression);
  std::printf("compiled '%s' to %zu cBPF instructions:\n%s",
              expression.c_str(), program.size(),
              bpf::disassemble(program).c_str());
  const bpf::Predecoded filter{program};
  net::PcapReader reader{in};
  net::PcapWriter writer{out, reader.snaplen(), reader.nanosecond()};
  std::uint64_t total = 0, kept = 0;
  while (auto record = reader.next()) {
    ++total;
    if (filter.matches(record->data, record->orig_len)) {
      writer.write(record->timestamp, record->data, record->orig_len);
      ++kept;
    }
  }
  std::printf("kept %llu of %llu packets -> %s\n",
              static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(total), out.c_str());
  return 0;
}

int cmd_replay(const std::string& path, std::uint32_t queues, unsigned x,
               const std::string& spool_dir = {}) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.num_queues = queues;
  config.x = x;
  if (!spool_dir.empty()) {
    store::SpoolConfig spool_config;
    spool_config.dir = spool_dir;
    config.spool = spool_config;
  }
  apps::Experiment experiment{config};

  trace::PcapReplayConfig replay_config;
  replay_config.path = path;
  auto source = trace::make_pcap_replay_source(replay_config);
  const std::uint64_t expected = source->expected_packets();
  // Horizon: generous — replay span is unknown until read; use the
  // recording itself (expected at >=1 p/us would be extreme; cap 120 s).
  const auto result =
      experiment.run(*source, Nanos::from_seconds(120));

  std::printf("replayed %llu of %llu packets through WireCAP-A on %u "
              "queues (x=%u)\n",
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(expected), queues, x);
  std::printf("delivered %llu, dropped %llu (%.2f%%)\n",
              static_cast<unsigned long long>(result.delivered),
              static_cast<unsigned long long>(result.capture_dropped),
              result.drop_rate() * 100);
  for (std::uint32_t q = 0; q < queues; ++q) {
    std::printf("  q%u: arrived %llu, delivered %llu\n", q,
                static_cast<unsigned long long>(result.per_queue[q].arrived),
                static_cast<unsigned long long>(
                    result.per_queue[q].delivered));
  }
  if (store::Spool* spool = experiment.spool()) {
    const store::ShardStats stats = spool->total_stats();
    std::printf("spooled %llu packets (%llu bytes) into %llu segment(s) "
                "under %s\n",
                static_cast<unsigned long long>(stats.packets_written),
                static_cast<unsigned long long>(stats.bytes_written),
                static_cast<unsigned long long>(stats.segments_opened),
                spool_dir.c_str());
    std::printf("read it back with: read-spool %s [expression]\n",
                spool_dir.c_str());
  }
  return 0;
}

int cmd_read_spool(const std::string& dir, const std::string& expression) {
  store::StoreReader reader{dir};
  std::printf("%zu segment(s) under %s\n", reader.segments().size(),
              dir.c_str());
  store::StoreQuery query;
  query.filter = expression;
  std::uint64_t packets = 0, bytes = 0;
  Nanos first{}, last{};
  const auto stats = reader.read_merged(
      query, [&](const net::PcapngRecord& record, std::uint32_t) {
        if (packets == 0) first = record.timestamp;
        last = record.timestamp;
        ++packets;
        bytes += record.orig_len;
      });
  const double duration = packets ? (last - first).seconds() : 0.0;
  std::printf("merged %llu packets (%llu bytes) in timestamp order, "
              "spanning %.3f s\n",
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(bytes), duration);
  std::printf("scanned %llu packets; indexes skipped %llu of %llu "
              "segment(s) (%llu by time, %llu by flow)\n",
              static_cast<unsigned long long>(stats.packets_scanned),
              static_cast<unsigned long long>(stats.segments_skipped_time +
                                              stats.segments_skipped_flow),
              static_cast<unsigned long long>(stats.segments_total),
              static_cast<unsigned long long>(stats.segments_skipped_time),
              static_cast<unsigned long long>(stats.segments_skipped_flow));
  return 0;
}

// --- summarize-latency: fold chunk.journey spans into a stage table ---

double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

int cmd_summarize_latency(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  // Each journey is one self-contained complete event:
  //   {"name":"chunk.journey",...,"tid":<ring>,"ts":...,"dur":<e2e us>,
  //    "args":{"capture":<ns>,"queue_wait":<ns>}}
  // so the fold needs no cross-event correlation: deliver is the
  // remainder dur - capture - queue_wait.
  std::vector<double> e2e, capture, queue_wait, deliver;
  std::map<long, std::uint64_t> per_ring;
  const std::string needle = "\"name\":\"chunk.journey\"";
  std::size_t pos = 0;
  while ((pos = content.find(needle, pos)) != std::string::npos) {
    const std::size_t end = content.find("}}", pos);
    if (end == std::string::npos) break;
    const auto field = [&](const char* key) -> double {
      const std::string want = std::string{"\""} + key + "\":";
      const std::size_t at = content.find(want, pos);
      if (at == std::string::npos || at > end) return -1.0;
      return std::strtod(content.c_str() + at + want.size(), nullptr);
    };
    const double dur_us = field("dur");
    const double capture_ns = field("capture");
    const double queue_wait_ns = field("queue_wait");
    const double tid = field("tid");
    pos = end + 1;
    if (dur_us < 0 || capture_ns < 0 || queue_wait_ns < 0) continue;
    const double e2e_ns = dur_us * 1000.0;
    e2e.push_back(e2e_ns);
    capture.push_back(capture_ns);
    queue_wait.push_back(queue_wait_ns);
    deliver.push_back(e2e_ns - capture_ns - queue_wait_ns);
    ++per_ring[static_cast<long>(tid)];
  }
  if (e2e.empty()) {
    std::fprintf(stderr,
                 "no chunk.journey spans in %s (was the run latency-enabled "
                 "with --trace-out?)\n",
                 path.c_str());
    return 1;
  }

  std::printf("%zu chunk.journey span(s) across %zu ring(s):",
              e2e.size(), per_ring.size());
  for (const auto& [ring, count] : per_ring) {
    std::printf("  ring %ld: %llu", ring,
                static_cast<unsigned long long>(count));
  }
  std::printf("\n%-12s %10s %10s %10s %10s %10s\n", "stage", "p50", "p90",
              "p99", "p999", "max");
  const auto row = [](const char* name, std::vector<double>& values) {
    std::sort(values.begin(), values.end());
    std::printf("%-12s %8.2fus %8.2fus %8.2fus %8.2fus %8.2fus\n", name,
                exact_quantile(values, 0.50) / 1000.0,
                exact_quantile(values, 0.90) / 1000.0,
                exact_quantile(values, 0.99) / 1000.0,
                exact_quantile(values, 0.999) / 1000.0,
                values.back() / 1000.0);
  };
  row("e2e", e2e);
  row("capture", capture);
  row("queue_wait", queue_wait);
  row("deliver", deliver);
  return 0;
}

int demo() {
  std::puts("trace_tools demo (run with arguments for real use; see "
            "header comment)");
  const auto dir = std::filesystem::temp_directory_path();
  const auto full = (dir / "wirecap_demo.pcap").string();
  const auto udp = (dir / "wirecap_demo_udp.pcap").string();
  if (const int rc = cmd_generate(full, 2.0, 0.05)) return rc;
  if (const int rc = cmd_inspect(full)) return rc;
  if (const int rc = cmd_filter(full, udp, "udp and 131.225.2")) return rc;
  if (const int rc = cmd_inspect(udp)) return rc;
  if (const int rc = cmd_replay(full, 4, 50)) return rc;
  const auto spool = (dir / "wirecap_demo_spool").string();
  if (const int rc = cmd_replay(full, 4, 50, spool)) return rc;
  if (const int rc = cmd_read_spool(spool, "udp")) return rc;
  std::filesystem::remove(full);
  std::filesystem::remove(udp);
  std::filesystem::remove_all(spool);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return demo();
    const std::string command = argv[1];
    if (command == "generate" && argc >= 3) {
      return cmd_generate(argv[2], argc > 3 ? std::atof(argv[3]) : 32.0,
                          argc > 4 ? std::atof(argv[4]) : 1.0);
    }
    if (command == "inspect" && argc == 3) return cmd_inspect(argv[2]);
    if (command == "filter" && argc == 5) {
      return cmd_filter(argv[2], argv[3], argv[4]);
    }
    if (command == "replay" && argc >= 3) {
      // Positional [queues] [x] mixed with the --spool-dir=DIR flag.
      std::string spool_dir;
      std::vector<std::string> positional;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--spool-dir=", 0) == 0) {
          spool_dir = arg.substr(12);
        } else {
          positional.push_back(arg);
        }
      }
      const std::uint32_t queues =
          positional.size() > 0
              ? static_cast<std::uint32_t>(std::atoi(positional[0].c_str()))
              : 6;
      const unsigned x =
          positional.size() > 1
              ? static_cast<unsigned>(std::atoi(positional[1].c_str()))
              : 300;
      return cmd_replay(argv[2], queues, x, spool_dir);
    }
    if (command == "read-spool" && argc >= 3) {
      return cmd_read_spool(argv[2], argc > 3 ? argv[3] : "");
    }
    if (command == "summarize-latency" && argc == 3) {
      return cmd_summarize_latency(argv[2]);
    }
    std::fprintf(stderr,
                 "usage: %s generate <out.pcap|out.pcapng> [seconds] [scale]\n"
                 "       %s inspect <in.pcap>\n"
                 "       %s filter <in.pcap> <out.pcap> <expression>\n"
                 "       %s replay <in.pcap> [queues] [x] [--spool-dir=DIR]\n"
                 "       %s read-spool <dir> [expression]\n"
                 "       %s summarize-latency <trace.json>\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
