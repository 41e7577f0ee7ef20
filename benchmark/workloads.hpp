// The benchmark's four workloads and the traffic they replay.
//
// Each workload fixes an engine configuration, a consumer (pkt_handler,
// pipeline + fan-out, or spool) and a traffic shape.  The traffic is a
// deterministic function of the seed and is generated before anything is
// timed; passes replay it through fresh experiments.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "net/packet.hpp"
#include "spans.hpp"
#include "telemetry/latency.hpp"
#include "trace/source.hpp"

namespace wirecap::benchmark {

enum class Consumer : std::uint8_t { kHandler, kPipeline, kSpool };

struct WorkloadSpec {
  std::string name;
  apps::EngineParams engine;
  std::uint32_t queues = 1;
  unsigned x = 0;
  Consumer consumer = Consumer::kHandler;
  /// Constant-rate traffic (border == false): `packets` frames of
  /// `frame_bytes` at line rate, cycling over `flows` RSS-steered flows.
  bool border = false;
  std::uint64_t packets = 0;
  std::uint32_t frame_bytes = 64;
  std::uint32_t flows = 1;
  /// Border-router traffic: seconds of the synthetic trace replayed, and
  /// when queue 0's long-term overload starts.
  double border_seconds = 0.0;
  double border_hot_split_s = 0.0;
  /// Virtual time simulated after the last arrival, so every packet is
  /// delivered (or dropped) before results are read.
  double drain_s = 0.1;
};

/// The stages of the pipeline workload: filter, then 1-in-N sampling.
inline constexpr const char* kPipelineFilter = "net 131.225.0.0/16 or udp";
inline constexpr std::uint32_t kPipelineSampleN = 2;

/// Returns the spec for `name`; throws std::invalid_argument when unknown.
[[nodiscard]] WorkloadSpec workload(const std::string& name);

/// The replayed traffic.  Constant-rate traffic keeps one frame per flow
/// and stamps timestamp and sequence number per packet as it is pulled;
/// border traffic is recorded packet by packet.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, std::uint64_t seed);

  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// A source replaying the first `limit` packets.
  [[nodiscard]] std::unique_ptr<trace::TrafficSource> source(
      std::uint64_t limit) const;
  /// Virtual time by which the first `limit` packets are settled.
  [[nodiscard]] Nanos horizon(std::uint64_t limit) const;
  /// Materializes the first `limit` packets (layer probes replay them).
  [[nodiscard]] std::vector<net::WirePacket> sample(std::uint64_t limit) const;
  /// Packets among the first `limit` whose flow satisfies `match` (the
  /// store query checks).
  [[nodiscard]] std::uint64_t count_packets(
      const std::function<bool(const net::FlowKey&)>& match,
      std::uint64_t limit) const;
  /// Flow of the first packet (the store's pinned-flow query).
  [[nodiscard]] net::FlowKey first_flow() const;

 private:
  [[nodiscard]] Nanos arrival(std::uint64_t index) const;

  std::uint64_t size_ = 0;
  double drain_s_ = 0.0;
  // Constant-rate traffic.
  std::vector<net::WirePacket> frames_;
  double interval_ns_ = 0.0;
  // Border traffic.
  trace::RecordedTrace recorded_;
};

/// Virtual-clock delivery record: counts delivered packets and their
/// wire-arrival -> application-delivery latency.
struct Delivery {
  const sim::Scheduler* clock = nullptr;
  telemetry::HdrHistogram latency;
  std::uint64_t packets = 0;

  void record(const engines::CaptureView& view) {
    latency.record((clock->now() - view.timestamp).count());
    ++packets;
  }
};

/// The pipeline workload's subscribers: each records its packets into
/// `delivery` and releases the batch.  With a recorder, each handler
/// call is a span named `span`.
[[nodiscard]] std::vector<pipeline::Subscriber> make_subscribers(
    Delivery& delivery, SpanRecorder* recorder = nullptr,
    SpanRecorder::NameId span = 0);

/// Builds the harness configuration of `spec`.  `spool_dir` is used by
/// the spool consumer only; pipeline subscribers record into `delivery`.
[[nodiscard]] apps::ExperimentConfig experiment_config(
    const WorkloadSpec& spec, const std::filesystem::path& spool_dir,
    Delivery& delivery);

/// The spool layout every spool run uses.
[[nodiscard]] store::SpoolConfig spool_config(const std::filesystem::path& dir);

}  // namespace wirecap::benchmark
