// Tests for the in-capture processing pipeline: stage semantics
// (filter/sample/truncate/aggregate), the spec parser, net::FlowTable,
// zero-copy fan-out refcounting in both modes (engine shares and the
// slot fallback), shared-engine vs dedicated-engine result equality,
// and the 100-seed fan-out fault soak under the lifecycle auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/harness.hpp"
#include "bpf/codegen.hpp"
#include "common/rng.hpp"
#include "core/wirecap_engine.hpp"
#include "net/flow_table.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "nic/device.hpp"
#include "nic/wire.hpp"
#include "pipeline/fanout.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/spec.hpp"
#include "pipeline/stages.hpp"
#include "sim/bus.hpp"
#include "sim/core.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/lifecycle_auditor.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::pipeline {
namespace {

net::FlowKey udp_flow(std::uint16_t src_port = 1111) {
  return net::FlowKey{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                      src_port, 53, net::IpProto::kUdp};
}

net::FlowKey tcp_flow(std::uint16_t src_port = 2222) {
  return net::FlowKey{net::Ipv4Addr{10, 0, 0, 3}, net::Ipv4Addr{10, 0, 0, 4},
                      src_port, 80, net::IpProto::kTcp};
}

/// Hand-built batch over owned frames (refs stay empty: these tests
/// exercise stage semantics, not release accounting).
struct TestBatch {
  std::vector<net::WirePacket> packets;
  engines::PacketBatch batch;

  void add(const net::FlowKey& flow, std::uint32_t wire_len,
           Nanos timestamp = Nanos::zero()) {
    packets.push_back(net::WirePacket::make(timestamp, flow, wire_len,
                                            packets.size()));
  }

  engines::PacketBatch& build() {
    batch.clear();
    for (net::WirePacket& packet : packets) {
      engines::CaptureView view;
      view.bytes = packet.mutable_bytes();
      view.wire_len = packet.wire_len();
      view.timestamp = packet.timestamp();
      view.seq = packet.seq();
      batch.views.push_back(view);
    }
    return batch;
  }
};

// --- stages ---

TEST(FilterStage, CompactsRejectedViewsInPlace) {
  TestBatch tb;
  tb.add(udp_flow(), 100);
  tb.add(tcp_flow(), 200);
  tb.add(udp_flow(4000), 300);
  engines::PacketBatch& batch = tb.build();

  FilterStage stage{"udp"};
  stage.process(batch);

  ASSERT_EQ(batch.views.size(), 2u);
  EXPECT_EQ(batch.views[0].seq, 0u);
  EXPECT_EQ(batch.views[1].seq, 2u);
  EXPECT_EQ(stage.stats().packets_in, 3u);
  EXPECT_EQ(stage.stats().packets_out, 2u);
  EXPECT_EQ(stage.stats().dropped(), 1u);
}

TEST(FilterStage, CanCompactToZero) {
  TestBatch tb;
  tb.add(tcp_flow(), 100);
  tb.add(tcp_flow(), 100);
  engines::PacketBatch& batch = tb.build();

  FilterStage stage{"udp"};
  stage.process(batch);
  EXPECT_TRUE(batch.views.empty());
  EXPECT_EQ(stage.stats().dropped(), 2u);
}

TEST(FilterStage, RejectsInvalidExpression) {
  // bpf::ParseError, a std::runtime_error.
  EXPECT_THROW(FilterStage{"this is not bpf"}, std::runtime_error);
}

TEST(SampleStage, OneInNIsDeterministicAcrossBatches) {
  SampleStage stage{SampleMode::kOneInN, 4};
  TestBatch first;
  for (int i = 0; i < 6; ++i) first.add(udp_flow(), 100);
  engines::PacketBatch& batch1 = first.build();
  stage.process(batch1);
  // Stream positions 0..5: keep 0 and 4.
  ASSERT_EQ(batch1.views.size(), 2u);
  EXPECT_EQ(batch1.views[0].seq, 0u);
  EXPECT_EQ(batch1.views[1].seq, 4u);

  TestBatch second;
  for (int i = 0; i < 6; ++i) second.add(udp_flow(), 100);
  engines::PacketBatch& batch2 = second.build();
  stage.process(batch2);
  // Positions 6..11: keep 8 (index 2 of this batch).
  ASSERT_EQ(batch2.views.size(), 1u);
  EXPECT_EQ(batch2.views[0].seq, 2u);
  EXPECT_EQ(stage.stats().packets_in, 12u);
  EXPECT_EQ(stage.stats().packets_out, 3u);
}

TEST(SampleStage, PerFlowKeepsFlowsWhole) {
  const std::uint32_t n = 2;
  std::vector<net::FlowKey> flows;
  for (std::uint16_t p = 0; p < 8; ++p) flows.push_back(udp_flow(5000 + p));

  TestBatch tb;
  for (int round = 0; round < 3; ++round) {
    for (const net::FlowKey& flow : flows) tb.add(flow, 128);
  }
  engines::PacketBatch& batch = tb.build();

  SampleStage stage{SampleMode::kPerFlow, n};
  stage.process(batch);

  // Survivors are exactly the packets of flows with mix() % n == 0 —
  // three per sampled flow (flows stay whole).
  std::size_t expected = 0;
  for (const net::FlowKey& flow : flows) {
    if (flow.mix() % n == 0) expected += 3;
  }
  EXPECT_EQ(batch.views.size(), expected);
  for (const engines::CaptureView& view : batch.views) {
    const auto flow = net::parse_flow(view.bytes);
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->mix() % n, 0u);
  }
}

TEST(TruncateStage, SlicesViewsWithoutTouchingWireLen) {
  TestBatch tb;
  tb.add(udp_flow(), 1000);  // snap length 64 > 48: truncated
  tb.add(udp_flow(), 48);    // already under the snaplen
  engines::PacketBatch& batch = tb.build();

  TruncateStage stage{48};
  stage.process(batch);

  ASSERT_EQ(batch.views.size(), 2u);
  EXPECT_EQ(batch.views[0].bytes.size(), 48u);
  EXPECT_EQ(batch.views[0].wire_len, 1000u);
  EXPECT_EQ(batch.views[1].bytes.size(), 48u);
  EXPECT_EQ(stage.truncated(), 1u);
  EXPECT_EQ(stage.stats().dropped(), 0u);
}

TEST(AggregateStage, AccumulatesAndSweepsIdleFlows) {
  AggregateStage stage{Nanos::from_millis(10)};
  std::vector<std::pair<net::FlowKey, net::FlowRecord>> exported;
  stage.set_exporter([&exported](const net::FlowKey& flow,
                                 const net::FlowRecord& record) {
    exported.emplace_back(flow, record);
  });

  TestBatch early;
  early.add(udp_flow(), 100, Nanos::from_millis(1));
  early.add(udp_flow(), 150, Nanos::from_millis(2));
  stage.process(early.build());
  EXPECT_EQ(stage.table().size(), 1u);
  EXPECT_EQ(stage.table().total_packets(), 2u);

  // 40 ms later: the idle sweep must have exported the early flow.
  TestBatch late;
  late.add(tcp_flow(), 200, Nanos::from_millis(40));
  stage.process(late.build());

  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].first, udp_flow());
  EXPECT_EQ(exported[0].second.packets, 2u);
  EXPECT_EQ(exported[0].second.bytes, 250u);
  EXPECT_EQ(stage.table().size(), 1u);  // only the live tcp flow remains
}

// --- Pipeline ---

TEST(Pipeline, RunsStagesInOrderWithEarlyOut) {
  Pipeline pipeline;
  pipeline.emplace<FilterStage>("udp");
  auto& sample = pipeline.emplace<SampleStage>(SampleMode::kOneInN, 1);

  TestBatch tb;
  tb.add(tcp_flow(), 100);  // rejected by the filter
  engines::PacketBatch& batch = tb.build();
  pipeline.run(batch);

  EXPECT_TRUE(batch.views.empty());
  // Early-out: the sample stage never saw the emptied batch.
  EXPECT_EQ(sample.stats().batches, 0u);
  EXPECT_EQ(pipeline.batches(), 1u);
  EXPECT_EQ(pipeline.packets_in(), 1u);
  EXPECT_EQ(pipeline.packets_out(), 0u);
  EXPECT_NE(pipeline.find("filter"), nullptr);
  EXPECT_EQ(pipeline.find("aggregate"), nullptr);
}

TEST(Pipeline, BindsPerStageTelemetry) {
  Pipeline pipeline;
  pipeline.emplace<FilterStage>("udp");
  pipeline.emplace<FilterStage>("tcp");  // duplicate name: ordinal suffix
  pipeline.emplace<TruncateStage>(64);

  telemetry::Telemetry telemetry;
  pipeline.bind_telemetry(telemetry, "pipeline.q0");

  EXPECT_TRUE(telemetry.registry.contains("pipeline.q0.batches"));
  EXPECT_TRUE(telemetry.registry.contains("pipeline.q0.filter.dropped"));
  EXPECT_TRUE(telemetry.registry.contains("pipeline.q0.filter2.dropped"));
  EXPECT_TRUE(telemetry.registry.contains("pipeline.q0.truncate.packets_out"));

  TestBatch tb;
  tb.add(udp_flow(), 100);
  tb.add(tcp_flow(), 100);
  pipeline.run(tb.build());
  EXPECT_EQ(telemetry::MetricRegistry::counter_value(
                telemetry.registry.entries().at("pipeline.q0.filter.dropped")),
            1u);
}

// --- spec parser ---

TEST(PipelineSpec, ParsesFullChain) {
  Pipeline pipeline =
      parse_pipeline_spec("filter:tcp port 80|sample:1/8|truncate:96|"
                          "aggregate:30");
  ASSERT_EQ(pipeline.size(), 4u);
  EXPECT_EQ(pipeline.stages()[0]->name(), "filter");
  EXPECT_EQ(pipeline.stages()[1]->name(), "sample");
  EXPECT_EQ(pipeline.stages()[2]->name(), "truncate");
  EXPECT_EQ(pipeline.stages()[3]->name(), "aggregate");

  const auto* sample =
      dynamic_cast<const SampleStage*>(pipeline.stages()[1].get());
  EXPECT_EQ(sample->mode(), SampleMode::kOneInN);
  EXPECT_EQ(sample->n(), 8u);
  const auto* aggregate =
      dynamic_cast<const AggregateStage*>(pipeline.stages()[3].get());
  EXPECT_EQ(aggregate->table().idle_timeout(), Nanos::from_seconds(30));
}

TEST(PipelineSpec, ParsesFlowSamplingAndEmptySpec) {
  Pipeline pipeline = parse_pipeline_spec(" sample:flow/4 ");
  ASSERT_EQ(pipeline.size(), 1u);
  const auto* sample =
      dynamic_cast<const SampleStage*>(pipeline.stages()[0].get());
  EXPECT_EQ(sample->mode(), SampleMode::kPerFlow);
  EXPECT_EQ(sample->n(), 4u);

  EXPECT_TRUE(parse_pipeline_spec("").empty());
  EXPECT_TRUE(parse_pipeline_spec("  |  ").empty());
}

TEST(PipelineSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_pipeline_spec("frobnicate:3"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("sample:2/4"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("sample:1/0"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("sample:1"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("truncate:zero"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("filter:"), std::invalid_argument);
  EXPECT_THROW(parse_pipeline_spec("filter:not a ++ filter"),
               std::invalid_argument);
  try {
    const Pipeline unused = parse_pipeline_spec("filter:udp|bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// --- net::FlowTable ---

TEST(FlowTable, UpdatesMergesAndRanks) {
  net::FlowTable a;
  a.update(udp_flow(), Nanos::from_millis(1), 100);
  a.update(udp_flow(), Nanos::from_millis(3), 100);
  a.update(tcp_flow(), Nanos::from_millis(2), 5000);

  net::FlowTable b;
  b.update(udp_flow(), Nanos::from_millis(0), 50);

  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.total_packets(), 4u);
  EXPECT_EQ(a.total_bytes(), 5250u);
  const net::FlowRecord& merged = a.records().at(udp_flow());
  EXPECT_EQ(merged.packets, 3u);
  EXPECT_EQ(merged.first, Nanos::from_millis(0));  // envelope widened
  EXPECT_EQ(merged.last, Nanos::from_millis(3));

  const auto top = a.top_by_bytes(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, tcp_flow());
}

TEST(FlowTable, CountsUnclassifiedPackets) {
  net::FlowTable table;
  const std::array<std::byte, 20> junk{};  // too short for eth+ip
  engines::CaptureView view;
  view.bytes = std::span<std::byte>(const_cast<std::byte*>(junk.data()),
                                    junk.size());
  view.wire_len = 20;
  EXPECT_FALSE(table.update(view).has_value());
  EXPECT_EQ(table.unclassified(), 1u);
  EXPECT_TRUE(table.empty());
}

TEST(FlowTable, SweepExportsIdleFlowsOnly) {
  net::FlowTable table{Nanos::from_millis(5)};
  table.update(udp_flow(), Nanos::from_millis(0), 10);
  table.update(tcp_flow(), Nanos::from_millis(9), 10);

  std::vector<net::FlowKey> exported;
  const std::size_t swept = table.sweep_idle(
      Nanos::from_millis(10),
      [&exported](const net::FlowKey& flow, const net::FlowRecord&) {
        exported.push_back(flow);
      });
  EXPECT_EQ(swept, 1u);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0], udp_flow());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.exported(), 1u);
}

// --- fan-out over real engines ---

/// Runs a single-queue experiment in pipeline mode and returns it for
/// inspection.  The caller's factory provides the subscribers.
struct FanOutRun {
  std::unique_ptr<apps::Experiment> experiment;
  apps::ExperimentResult result;
};

FanOutRun run_fanout(
    apps::EngineKind kind, Steering steering,
    std::function<std::vector<Subscriber>(std::uint32_t)> subscribers,
    std::uint64_t packets = 4000, const std::string& spec = "") {
  apps::ExperimentConfig config;
  config.engine.kind = kind;
  config.engine.cells_per_chunk = 16;
  config.engine.chunk_count = 16;
  config.ring_size = 128;  // R must exceed ring_size / M
  config.num_queues = 1;
  config.filter = "";
  config.pipeline = spec;
  config.steering = steering;
  config.subscribers = std::move(subscribers);

  FanOutRun run;
  run.experiment = std::make_unique<apps::Experiment>(std::move(config));

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = packets;
  Xoshiro256 rng{99};
  trace_config.flows =
      trace::flows_for_queue(rng, 0, 1, 6, /*udp_fraction=*/0.5);
  trace::ConstantRateSource source{trace_config};
  run.result = run.experiment->run(source, Nanos::from_seconds(2));
  return run;
}

TEST(FanOut, BroadcastDeliversEverySubscriberEveryPacket) {
  std::array<std::uint64_t, 3> counts{};
  auto factory = [&counts](std::uint32_t) {
    std::vector<Subscriber> subs;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      subs.push_back({"sub" + std::to_string(i),
                      [&counts, i](SharedBatch batch) {
                        counts[i] += batch.batch().size();
                      },
                      std::nullopt});
    }
    return subs;
  };
  const FanOutRun run = run_fanout(apps::EngineKind::kWirecapAdvanced,
                                   Steering::kBroadcast, factory);

  EXPECT_GT(run.result.delivered, 0u);
  for (const std::uint64_t count : counts) {
    EXPECT_EQ(count, run.result.delivered);
  }
  const FanOut& fanout = run.experiment->fanout(0);
  EXPECT_TRUE(fanout.uses_engine_shares());
  // Two extra shares per offered batch (three receivers).
  EXPECT_EQ(fanout.shares_granted(), fanout.offers() * 3u);
  EXPECT_EQ(fanout.slots_in_flight(), 0u);
}

TEST(FanOut, FlowHashPartitionsWithoutSplittingFlows) {
  std::array<net::FlowTable, 2> tables;
  auto factory = [&tables](std::uint32_t) {
    std::vector<Subscriber> subs;
    for (std::size_t i = 0; i < tables.size(); ++i) {
      subs.push_back({"part" + std::to_string(i),
                      [&tables, i](SharedBatch batch) {
                        for (const engines::CaptureView& view :
                             batch.batch()) {
                          tables[i].update(view);
                        }
                      },
                      std::nullopt});
    }
    return subs;
  };
  const FanOutRun run = run_fanout(apps::EngineKind::kWirecapAdvanced,
                                   Steering::kFlowHash, factory);

  // A partition: packet totals add up, and no flow appears on both
  // subscribers.
  EXPECT_EQ(tables[0].total_packets() + tables[1].total_packets(),
            run.result.delivered);
  for (const auto& [flow, record] : tables[0].records()) {
    EXPECT_EQ(tables[1].records().count(flow), 0u) << flow.to_string();
  }
}

TEST(FanOut, BpfMatchSteersBySubscriberProgram) {
  std::uint64_t udp_count = 0, tcp_count = 0, all_count = 0;
  auto factory = [&](std::uint32_t) {
    std::vector<Subscriber> subs;
    subs.push_back({"udp",
                    [&udp_count](SharedBatch batch) {
                      udp_count += batch.batch().size();
                    },
                    bpf::compile_filter("udp")});
    subs.push_back({"tcp",
                    [&tcp_count](SharedBatch batch) {
                      tcp_count += batch.batch().size();
                    },
                    bpf::compile_filter("tcp")});
    subs.push_back({"all",
                    [&all_count](SharedBatch batch) {
                      all_count += batch.batch().size();
                    },
                    std::nullopt});
    return subs;
  };
  const FanOutRun run = run_fanout(apps::EngineKind::kWirecapAdvanced,
                                   Steering::kBpfMatch, factory);

  EXPECT_EQ(all_count, run.result.delivered);
  EXPECT_EQ(udp_count + tcp_count, run.result.delivered);
  EXPECT_GT(udp_count, 0u);
  EXPECT_GT(tcp_count, 0u);
}

TEST(FanOut, RetainedSharedBatchesKeepChunksAliveUntilRelease) {
  testing::ChunkLifecycleAuditor auditor;
  std::vector<SharedBatch> held;
  std::uint64_t released_packets = 0;

  auto factory = [&](std::uint32_t) {
    std::vector<Subscriber> subs;
    subs.push_back({"spooler",
                    [&held](SharedBatch batch) {
                      held.push_back(std::move(batch));  // retain
                    },
                    std::nullopt});
    subs.push_back({"counter",
                    [&released_packets](SharedBatch batch) {
                      released_packets += batch.batch().size();
                    },
                    std::nullopt});
    return subs;
  };

  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 16;
  config.engine.chunk_count = 64;  // enough headroom to retain everything
  config.ring_size = 128;
  config.num_queues = 1;
  config.steering = Steering::kBroadcast;
  config.subscribers = factory;
  apps::Experiment experiment{std::move(config)};

  auto& wirecap = dynamic_cast<core::WirecapEngine&>(experiment.engine());
  wirecap.set_pool_observer(&auditor);

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 600;
  Xoshiro256 rng{7};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};
  const apps::ExperimentResult result =
      experiment.run(source, Nanos::from_seconds(2));

  EXPECT_GT(result.delivered, 0u);
  EXPECT_EQ(released_packets, result.delivered);
  EXPECT_FALSE(held.empty());

  // The spooler still holds its references: the chunks stay outstanding
  // even though the counter (and the original) released long ago.
  const auto census_before = wirecap.captured_census(0);
  EXPECT_GT(census_before.outstanding, 0u);

  std::uint64_t held_packets = 0;
  for (SharedBatch& batch : held) held_packets += batch.batch().size();
  EXPECT_EQ(held_packets, result.delivered);

  held.clear();  // drop the last references
  const auto census_after = wirecap.captured_census(0);
  EXPECT_EQ(census_after.outstanding, 0u);

  // Kernel-side share counts fully settled.
  for (std::uint32_t c = 0; c < 64; ++c) {
    EXPECT_EQ(wirecap.pool(0).extra_shares(c), 0u) << "chunk " << c;
  }
  auditor.check_pool(wirecap.pool(0));
  EXPECT_TRUE(auditor.clean()) << auditor.violations().front();
}

TEST(FanOut, SlotFallbackForEnginesWithoutShares) {
  std::vector<SharedBatch> held;
  std::uint64_t count = 0;
  auto factory = [&](std::uint32_t) {
    std::vector<Subscriber> subs;
    subs.push_back({"hold",
                    [&held](SharedBatch batch) {
                      held.push_back(std::move(batch));
                    },
                    std::nullopt});
    subs.push_back({"count",
                    [&count](SharedBatch batch) {
                      count += batch.batch().size();
                    },
                    std::nullopt});
    return subs;
  };
  FanOutRun run = run_fanout(apps::EngineKind::kPsioe, Steering::kBroadcast,
                             factory, /*packets=*/1000);

  FanOut& fanout = run.experiment->fanout(0);
  EXPECT_FALSE(fanout.uses_engine_shares());
  EXPECT_EQ(fanout.shares_granted(), 0u);
  EXPECT_EQ(count, run.result.delivered);
  // Every offered batch is parked in a slot until the holder lets go.
  EXPECT_EQ(fanout.slots_in_flight(), held.size());
  held.clear();
  EXPECT_EQ(fanout.slots_in_flight(), 0u);
  EXPECT_EQ(fanout.releases(), fanout.offers() * 2u);
}

TEST(FanOut, CompactedToZeroBatchesStillRelease) {
  // A pipeline that drops everything: the fan-out must settle the refs
  // (no subscriber ever fires), and no chunk may leak.
  std::uint64_t seen = 0;
  auto factory = [&seen](std::uint32_t) {
    std::vector<Subscriber> subs;
    subs.push_back({"never",
                    [&seen](SharedBatch batch) {
                      seen += batch.batch().size();
                    },
                    std::nullopt});
    return subs;
  };
  FanOutRun run =
      run_fanout(apps::EngineKind::kWirecapAdvanced, Steering::kBroadcast,
                 factory, /*packets=*/2000, /*spec=*/"filter:tcp port 9999");

  EXPECT_EQ(seen, 0u);
  EXPECT_GT(run.result.delivered, 0u);
  const FanOut& fanout = run.experiment->fanout(0);
  EXPECT_EQ(fanout.unclaimed(), fanout.offers());
  auto& wirecap =
      dynamic_cast<core::WirecapEngine&>(run.experiment->engine());
  EXPECT_EQ(wirecap.captured_census(0).outstanding, 0u);
}

TEST(FanOut, RejectsBatchWithoutRefsBeforeSteering) {
  // done_batch() releases only through refs, so a batch with views but
  // no refs is refused before any subscriber can hold a piece whose
  // release would throw — in share mode (WireCAP) and slot mode (PSIOE).
  for (const apps::EngineKind kind :
       {apps::EngineKind::kWirecapBasic, apps::EngineKind::kPsioe}) {
    sim::Scheduler scheduler;
    sim::IoBus bus{scheduler};
    nic::NicConfig nic_config;
    nic_config.num_rx_queues = 1;
    nic::MultiQueueNic nic{scheduler, bus, nic_config};
    apps::EngineParams params;
    params.kind = kind;
    auto engine = apps::make_engine(params, scheduler, nic, sim::CostModel{});
    FanOut fanout{*engine, Steering::kBroadcast};
    std::uint64_t calls = 0;
    fanout.subscribe({"count", [&calls](SharedBatch) { ++calls; },
                      std::nullopt});

    engines::PacketBatch batch;
    batch.views.resize(2);
    EXPECT_THROW(fanout.offer(0, std::move(batch)), std::logic_error);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(fanout.slots_in_flight(), 0u);
  }
}

// --- shared engine vs dedicated engines: identical per-app results ---

struct AppDigest {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mix = 0;

  void fold(const engines::CaptureView& view) {
    ++packets;
    bytes += view.wire_len;
    std::uint64_t h = view.seq * 0x9E3779B97F4A7C15ULL + view.wire_len;
    for (const std::byte b : view.bytes.first(
             std::min<std::size_t>(view.bytes.size(), 16))) {
      h = h * 1099511628211ULL + static_cast<std::uint64_t>(b);
    }
    mix ^= h;
  }
  bool operator==(const AppDigest&) const = default;
};

TEST(SharedEngine, ByteIdenticalResultsVsDedicatedEngines) {
  constexpr std::uint64_t kPackets = 8000;
  const auto make_source = [] {
    trace::ConstantRateConfig trace_config;
    trace_config.packet_count = kPackets;
    Xoshiro256 rng{31};
    trace_config.flows =
        trace::flows_for_queue(rng, 0, 1, 8, /*udp_fraction=*/0.4);
    return trace::ConstantRateSource{trace_config};
  };
  const Nanos horizon = Nanos::from_seconds(2);

  // One engine, two zero-copy subscriptions (the ids_monitor layout).
  AppDigest shared_ids, shared_flows;
  {
    apps::ExperimentConfig config;
    config.engine.kind = apps::EngineKind::kWirecapAdvanced;
    config.num_queues = 1;
    config.steering = Steering::kBroadcast;
    config.subscribers = [&](std::uint32_t) {
      std::vector<Subscriber> subs;
      subs.push_back({"ids",
                      [&shared_ids](SharedBatch batch) {
                        for (const auto& view : batch.batch()) {
                          shared_ids.fold(view);
                        }
                      },
                      std::nullopt});
      subs.push_back({"flows",
                      [&shared_flows](SharedBatch batch) {
                        for (const auto& view : batch.batch()) {
                          shared_flows.fold(view);
                        }
                      },
                      std::nullopt});
      return subs;
    };
    apps::Experiment experiment{std::move(config)};
    auto source = make_source();
    const auto result = experiment.run(source, horizon);
    ASSERT_EQ(result.capture_dropped + result.delivery_dropped, 0u)
        << "load must stay below capacity for the equality to be exact";
    ASSERT_EQ(result.delivered, kPackets);
  }

  // The same apps, each owning a dedicated engine over the same trace.
  const auto dedicated_run = [&] {
    AppDigest digest;
    apps::ExperimentConfig config;
    config.engine.kind = apps::EngineKind::kWirecapAdvanced;
    config.num_queues = 1;
    config.filter = "";
    config.execute_filter = false;
    apps::Experiment experiment{std::move(config)};
    experiment.handler(0).set_packet_hook(
        [&digest](const engines::CaptureView& view) { digest.fold(view); });
    auto source = make_source();
    const auto result = experiment.run(source, horizon);
    EXPECT_EQ(result.capture_dropped + result.delivery_dropped, 0u);
    return digest;
  };
  const AppDigest dedicated_ids = dedicated_run();
  const AppDigest dedicated_flows = dedicated_run();

  EXPECT_EQ(shared_ids, dedicated_ids);
  EXPECT_EQ(shared_flows, dedicated_flows);
  EXPECT_EQ(shared_ids, shared_flows);  // broadcast: same stream
}

// --- the 100-seed fan-out fault soak ---

/// One seeded fan-out adversity run: small pool geometry, random
/// steering mode, random stage chain, subscribers that randomly retain
/// SharedBatches and release them on a seeded schedule, all under the
/// lifecycle auditor with periodic conservation checks.
std::vector<std::string> run_fanout_soak_seed(std::uint64_t seed) {
  constexpr std::uint32_t kCells = 8;
  constexpr std::uint32_t kChunks = 12;
  Xoshiro256 rng{seed};

  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic_config.num_rx_queues = 1;
  nic_config.rx_ring_size = 32;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};

  apps::EngineParams engine_params;
  engine_params.kind = apps::EngineKind::kWirecapAdvanced;
  engine_params.cells_per_chunk = kCells;
  engine_params.chunk_count = kChunks;
  auto engine = apps::make_engine(engine_params, scheduler, nic,
                                  sim::CostModel{});
  auto& wirecap = dynamic_cast<core::WirecapEngine&>(*engine);

  testing::AuditorConfig auditor_config;
  auditor_config.throw_on_violation = false;
  testing::ChunkLifecycleAuditor auditor{auditor_config};
  wirecap.set_pool_observer(&auditor);

  const auto steering = static_cast<Steering>(rng.next() % 3);
  FanOut fanout{*engine, steering};

  struct Held {
    SharedBatch batch;
    Nanos release_at;
  };
  std::vector<Held> held;
  std::uint64_t received = 0;

  for (int i = 0; i < 3; ++i) {
    std::optional<bpf::Program> match;
    if (steering == Steering::kBpfMatch && i < 2) {
      match = bpf::compile_filter(i == 0 ? "udp" : "tcp");
    }
    fanout.subscribe(
        {"sub" + std::to_string(i),
         [&rng, &held, &received, &scheduler](SharedBatch batch) {
           received += batch.batch().size();
           if (rng.next() % 100 < 45) {  // retain for a random while
             const Nanos release_at =
                 scheduler.now() +
                 Nanos{static_cast<std::int64_t>(rng.next() % 200'000)};
             held.push_back(Held{std::move(batch), release_at});
           }  // else: released at scope exit
         },
         std::move(match)});
  }

  // Random stage chain in front of the fan-out.
  Pipeline pipeline;
  if (rng.next() % 2 == 0) pipeline.emplace<SampleStage>(SampleMode::kOneInN, 2);
  if (rng.next() % 2 == 0) pipeline.emplace<TruncateStage>(60);

  sim::CostModel costs;
  sim::SimCore core{scheduler, 0};
  PipelineRunnerConfig runner_config;
  runner_config.batch_packets = kCells;
  PipelineRunner runner{core,          *engine,       0, std::move(pipeline),
                       fanout,        runner_config, costs};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 1200 + rng.next() % 800;
  Xoshiro256 flow_rng{seed ^ 0xABCDEF};
  trace_config.flows =
      trace::flows_for_queue(flow_rng, 0, 1, 4, /*udp_fraction=*/0.5);
  trace::ConstantRateSource source{trace_config};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  // Periodic tick: release due batches, audit conservation.
  const Nanos horizon = Nanos::from_millis(2);
  std::function<void()> tick = [&] {
    const Nanos now = scheduler.now();
    std::erase_if(held, [now](Held& h) {
      if (h.release_at <= now) {
        h.batch.release();
        return true;
      }
      return false;
    });
    // Quiesced between events: the conservation law must hold, shares
    // included.
    auditor.check_pool(wirecap.pool(0));
    auditor.check_conservation(wirecap, 0);
    if (scheduler.now() < horizon + Nanos::from_millis(1)) {
      scheduler.schedule_after(Nanos::from_micros(25), tick);
    }
  };
  scheduler.schedule_after(Nanos::from_micros(25), tick);
  scheduler.run_until(horizon + Nanos::from_millis(1));

  // Final settlement: drop every retained reference, then verify the
  // books: nothing outstanding, no kernel-side shares left, auditor
  // clean.
  for (Held& h : held) h.batch.release();
  held.clear();
  scheduler.run_until(scheduler.now() + Nanos::from_millis(1));

  auditor.check_pool(wirecap.pool(0));
  auditor.check_conservation(wirecap, 0);

  std::vector<std::string> problems(auditor.violations());
  const auto census = wirecap.captured_census(0);
  if (census.outstanding != 0) {
    problems.push_back("outstanding chunks after full release");
  }
  for (std::uint32_t c = 0; c < kChunks; ++c) {
    if (wirecap.pool(0).extra_shares(c) != 0) {
      problems.push_back("leftover shares on chunk " + std::to_string(c));
    }
  }
  if (fanout.slots_in_flight() != 0) {
    problems.push_back("fan-out slots still in flight");
  }
  if (received == 0) problems.push_back("no traffic reached subscribers");
  return problems;
}

TEST(FanOutSoak, RefcountConservationAcross100Seeds) {
  std::uint32_t dirty = 0;
  std::vector<std::string> first_failures;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::vector<std::string> problems = run_fanout_soak_seed(seed);
    if (!problems.empty()) {
      ++dirty;
      if (first_failures.size() < 5) {
        first_failures.push_back("seed " + std::to_string(seed) + ": " +
                                 problems.front());
      }
    }
  }
  std::string summary;
  for (const std::string& failure : first_failures) {
    summary += failure + "\n";
  }
  EXPECT_EQ(dirty, 0u) << summary;
}

}  // namespace
}  // namespace wirecap::pipeline
