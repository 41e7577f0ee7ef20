// Tests for the extension surface: VLAN and IPv6 header support, IPv6
// Toeplitz RSS (against the published verification vectors), the BPF
// language additions (ip6 / vlan / portrange / greater / less), and the
// DPDK engine model.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <unistd.h>

#include "apps/harness.hpp"
#include "bpf/codegen.hpp"
#include "bpf/eval.hpp"
#include "bpf/parser.hpp"
#include "bpf/vm.hpp"
#include "engines/dpdk_engine.hpp"
#include "net/headers.hpp"
#include "net/pcapfile.hpp"
#include "net/pcapng.hpp"
#include "net/rss.hpp"
#include "trace/constant_rate.hpp"
#include "trace/pcap_source.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap {
namespace {

using net::FlowKey;
using net::IpProto;
using net::Ipv4Addr;
using net::Ipv6Addr;

// --- VLAN ---

TEST(Vlan, BuildAndParseTaggedFrame) {
  FlowKey flow{Ipv4Addr{131, 225, 2, 5}, Ipv4Addr{10, 0, 0, 9}, 1234, 53,
               IpProto::kUdp};
  std::array<std::byte, 128> buf{};
  const std::size_t n =
      net::build_vlan_frame(buf, flow, 42, 68, net::MacAddr{}, net::MacAddr{});
  EXPECT_EQ(n, 68u);

  const auto eth = net::parse_ethernet(buf);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ether_type, net::kEtherTypeVlan);

  const auto tag = net::parse_vlan(buf);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->vid, 42);
  EXPECT_EQ(tag->inner_ether_type, net::kEtherTypeIpv4);

  // parse_flow skips the tag transparently.
  const auto parsed = net::parse_flow(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);

  EXPECT_EQ(net::l3_offset(buf).value(), 18u);
}

TEST(Vlan, UntaggedFrameHasNoTag) {
  FlowKey flow{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1, 2,
               IpProto::kUdp};
  std::array<std::byte, 64> buf{};
  net::build_frame(buf, flow, 64, net::MacAddr{}, net::MacAddr{});
  EXPECT_FALSE(net::parse_vlan(buf).has_value());
  EXPECT_EQ(net::l3_offset(buf).value(), 14u);
}

TEST(Vlan, TciFieldsRoundTrip) {
  std::array<std::byte, 64> buf{};
  net::write_ethernet(buf, net::EthernetHeader{{}, {}, net::kEtherTypeVlan});
  net::VlanTag tag;
  tag.pcp = 5;
  tag.dei = true;
  tag.vid = 0xABC;
  tag.inner_ether_type = net::kEtherTypeIpv6;
  net::write_vlan(buf, tag);
  const auto parsed = net::parse_vlan(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pcp, 5);
  EXPECT_TRUE(parsed->dei);
  EXPECT_EQ(parsed->vid, 0xABC);
  EXPECT_EQ(parsed->inner_ether_type, net::kEtherTypeIpv6);
}

// --- IPv6 ---

TEST(Ipv6, AddressParseAndFormat) {
  const auto full = Ipv6Addr::parse("2001:db8:0:1:1:1:1:1");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->to_string(), "2001:db8:0:1:1:1:1:1");

  const auto elided = Ipv6Addr::parse("3ffe:2501:200:3::1");
  ASSERT_TRUE(elided.has_value());
  EXPECT_EQ(elided->octets[0], 0x3f);
  EXPECT_EQ(elided->octets[1], 0xfe);
  EXPECT_EQ(elided->octets[15], 0x01);
  EXPECT_EQ(elided->octets[7], 0x03);

  const auto loopback = Ipv6Addr::parse("::1");
  ASSERT_TRUE(loopback.has_value());
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(loopback->octets[i], 0);
  EXPECT_EQ(loopback->octets[15], 1);

  EXPECT_FALSE(Ipv6Addr::parse("").has_value());
  EXPECT_FALSE(Ipv6Addr::parse("1:2:3").has_value());
  EXPECT_FALSE(Ipv6Addr::parse("1::2::3").has_value());
  EXPECT_FALSE(Ipv6Addr::parse("12345::1").has_value());
  EXPECT_FALSE(Ipv6Addr::parse("gg::1").has_value());
}

TEST(Ipv6, BuildAndParseFrame) {
  const auto src = Ipv6Addr::parse("2001:db8::aa").value();
  const auto dst = Ipv6Addr::parse("2001:db8::bb").value();
  std::array<std::byte, 128> buf{};
  const std::size_t n = net::build_ipv6_frame(buf, src, dst, IpProto::kUdp,
                                              5000, 53, 80);
  EXPECT_EQ(n, 80u);

  const auto eth = net::parse_ethernet(buf);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ether_type, net::kEtherTypeIpv6);

  const auto ip6 = net::parse_ipv6(
      std::span<const std::byte>{buf}.subspan(14));
  ASSERT_TRUE(ip6.has_value());
  EXPECT_EQ(ip6->src, src);
  EXPECT_EQ(ip6->dst, dst);
  EXPECT_EQ(ip6->next_header, IpProto::kUdp);
  EXPECT_EQ(ip6->payload_length, 80 - 14 - 40);
  EXPECT_EQ(ip6->hop_limit, 64);

  // IPv4 flow parsing correctly refuses an IPv6 frame.
  EXPECT_FALSE(net::parse_flow(buf).has_value());
}

TEST(Ipv6, ParseRejectsIpv4Header) {
  std::array<std::byte, 64> buf{};
  FlowKey flow;
  flow.proto = IpProto::kUdp;
  net::build_frame(buf, flow, 64, net::MacAddr{}, net::MacAddr{});
  EXPECT_FALSE(
      net::parse_ipv6(std::span<const std::byte>{buf}.subspan(14)).has_value());
}

// The IPv6 rows of the Microsoft RSS verification suite.
struct RssV6Vector {
  const char* src;
  const char* dst;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint32_t l4_hash;
  std::uint32_t ip_hash;
};

class RssV6Vectors : public ::testing::TestWithParam<RssV6Vector> {};

TEST_P(RssV6Vectors, ToeplitzMatchesPublishedHashes) {
  const auto& v = GetParam();
  const auto src = Ipv6Addr::parse(v.src);
  const auto dst = Ipv6Addr::parse(v.dst);
  ASSERT_TRUE(src.has_value());
  ASSERT_TRUE(dst.has_value());
  EXPECT_EQ(net::rss_hash_ipv6(*src, *dst, v.src_port, v.dst_port, true),
            v.l4_hash);
  EXPECT_EQ(net::rss_hash_ipv6(*src, *dst, 0, 0, false), v.ip_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Published, RssV6Vectors,
    ::testing::Values(
        RssV6Vector{"3ffe:2501:200:1fff::7", "3ffe:2501:200:3::1", 2794,
                    1766, 0x40207d3d, 0x2cc18cd5},
        RssV6Vector{"3ffe:501:8::260:97ff:fe40:efab", "ff02::1", 14230, 4739,
                    0xdde51bbf, 0x0f0c461c},
        RssV6Vector{"3ffe:1900:4545:3:200:f8ff:fe21:67cf",
                    "fe80::200:f8ff:fe21:67cf", 44251, 38024, 0x02d1feef,
                    0x4b61e985}));

// --- pcapng ---

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("wirecap_test_" + std::to_string(::getpid()) + ".pcapng");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(PcapngTest, RoundTripNanosecondTimestamps) {
  FlowKey flow{Ipv4Addr{131, 225, 2, 3}, Ipv4Addr{10, 0, 0, 1}, 999, 53,
               IpProto::kUdp};
  {
    net::PcapngWriter writer{path_};
    for (int i = 0; i < 25; ++i) {
      writer.write(net::WirePacket::make(
          Nanos{7'000'000'123LL + i * 1'000'000LL}, flow, 64,
          static_cast<std::uint64_t>(i)));
    }
    EXPECT_EQ(writer.records_written(), 25u);
  }
  net::PcapngReader reader{path_};
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 25u);
  EXPECT_EQ(reader.interfaces_seen(), 1u);
  EXPECT_EQ(reader.hardware(), "WireCAP simulated NIC");
  EXPECT_EQ(records[0].timestamp.count(), 7'000'000'123LL);
  EXPECT_EQ(records[24].timestamp.count(), 7'024'000'123LL);
  EXPECT_EQ(records[0].orig_len, 64u);
  EXPECT_EQ(records[0].interface_id, 0u);
  const auto parsed = net::parse_flow(records[0].data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);
}

TEST_F(PcapngTest, NonFourByteAlignedPayloadsPadded) {
  {
    net::PcapngWriter writer{path_};
    std::array<std::byte, 61> odd{};
    odd[0] = std::byte{0xAB};
    odd[60] = std::byte{0xCD};
    writer.write(Nanos{1}, odd, 61);
    std::array<std::byte, 64> even{};
    writer.write(Nanos{2}, even, 64);
  }
  net::PcapngReader reader{path_};
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].data.size(), 61u);
  EXPECT_EQ(records[0].data[60], std::byte{0xCD});
  EXPECT_EQ(records[1].data.size(), 64u);
}

TEST_F(PcapngTest, DestructorFlushesUnclosedTail) {
  // Regression: an abandoned writer (destroyed without close()) used to
  // lose buffered tail bytes; reopening must find every packet,
  // including the last one and its packet id.
  FlowKey flow{Ipv4Addr{131, 225, 2, 3}, Ipv4Addr{10, 0, 0, 1}, 999, 53,
               IpProto::kUdp};
  {
    auto writer = std::make_unique<net::PcapngWriter>(path_);
    for (int i = 0; i < 9; ++i) {
      const auto pkt = net::WirePacket::make(Nanos{500LL * (i + 1)}, flow, 64,
                                             static_cast<std::uint64_t>(i));
      writer->write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), 0,
                    static_cast<std::uint64_t>(100 + i));
    }
    writer.reset();  // destructor, no close()
  }
  net::PcapngReader reader{path_};
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 9u);
  EXPECT_EQ(records.back().timestamp.count(), 4'500LL);
  ASSERT_TRUE(records.back().packet_id.has_value());
  EXPECT_EQ(*records.back().packet_id, 108u);
}

TEST_F(PcapngTest, RejectsGarbage) {
  {
    std::ofstream out{path_, std::ios::binary};
    out << "definitely not pcapng";
  }
  EXPECT_THROW(net::PcapngReader{path_}, std::runtime_error);
}

TEST_F(PcapngTest, RejectsClassicPcap) {
  {
    net::PcapWriter writer{path_};  // classic format
    net::FlowKey flow;
    flow.proto = IpProto::kUdp;
    writer.write(net::WirePacket::make(Nanos{0}, flow, 64));
  }
  EXPECT_THROW(net::PcapngReader{path_}, std::runtime_error);
}

TEST_F(PcapngTest, ReplaySourceRoundTrip) {
  // Write a recording (classic pcap), replay it through the source, and
  // check timing, ordering and payload fidelity; then again at 2x speed
  // and with two loops.
  const auto pcap_path = std::filesystem::temp_directory_path() /
                         ("wirecap_replay_" + std::to_string(::getpid()) +
                          ".pcap");
  FlowKey flow{Ipv4Addr{131, 225, 2, 8}, Ipv4Addr{10, 9, 9, 9}, 1000, 53,
               IpProto::kUdp};
  {
    net::PcapWriter writer{pcap_path};
    for (int i = 0; i < 10; ++i) {
      writer.write(net::WirePacket::make(
          Nanos{1'000'000LL + i * 500'000LL}, flow, 64,
          static_cast<std::uint64_t>(i)));
    }
  }

  trace::PcapReplayConfig config;
  config.path = pcap_path;
  auto source = trace::make_pcap_replay_source(config);
  EXPECT_EQ(source->expected_packets(), 10u);
  int count = 0;
  Nanos last{-1};
  while (auto packet = source->next()) {
    // Rebased: the first packet departs at t=0, spacing preserved.
    EXPECT_EQ(packet->timestamp().count(), count * 500'000LL);
    EXPECT_GT(packet->timestamp(), last);
    last = packet->timestamp();
    const auto parsed = net::parse_flow(packet->bytes());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, flow);
    ++count;
  }
  EXPECT_EQ(count, 10);

  // 2x speedup halves the spacing.
  config.speedup = 2.0;
  auto fast = trace::make_pcap_replay_source(config);
  fast->next();
  EXPECT_EQ(fast->next()->timestamp().count(), 250'000LL);

  // Two loops double the volume and stay monotonic.
  config.speedup = 1.0;
  config.loops = 2;
  auto looped = trace::make_pcap_replay_source(config);
  EXPECT_EQ(looped->expected_packets(), 20u);
  int looped_count = 0;
  Nanos prev{-1};
  while (auto packet = looped->next()) {
    EXPECT_GT(packet->timestamp(), prev);
    prev = packet->timestamp();
    ++looped_count;
  }
  EXPECT_EQ(looped_count, 20);
  std::filesystem::remove(pcap_path);
}

TEST_F(PcapngTest, ReplaySourceReadsPcapng) {
  FlowKey flow{Ipv4Addr{10, 1, 1, 1}, Ipv4Addr{10, 2, 2, 2}, 5, 6,
               IpProto::kTcp};
  {
    net::PcapngWriter writer{path_};
    writer.write(net::WirePacket::make(Nanos{500}, flow, 64, 0));
    writer.write(net::WirePacket::make(Nanos{900}, flow, 64, 1));
  }
  trace::PcapReplayConfig config;
  config.path = path_;
  config.start = Nanos{100};
  auto source = trace::make_pcap_replay_source(config);
  EXPECT_EQ(source->next()->timestamp().count(), 100);
  EXPECT_EQ(source->next()->timestamp().count(), 500);
  EXPECT_FALSE(source->next().has_value());
}

TEST(PcapReplay, RejectsBadConfig) {
  trace::PcapReplayConfig config;
  config.path = "/nonexistent/file.pcap";
  EXPECT_THROW(trace::make_pcap_replay_source(config), std::runtime_error);
}

// --- BPF language extensions ---

TEST(BpfExtensions, ParseRendering) {
  using bpf::parse_filter;
  using bpf::to_string;
  EXPECT_EQ(to_string(*parse_filter("ip6")), "ip6");
  EXPECT_EQ(to_string(*parse_filter("vlan")), "vlan");
  EXPECT_EQ(to_string(*parse_filter("vlan 42")), "vlan 42");
  EXPECT_EQ(to_string(*parse_filter("portrange 100-200")),
            "portrange 100-200");
  EXPECT_EQ(to_string(*parse_filter("src portrange 1-1024")),
            "src portrange 1-1024");
  EXPECT_EQ(to_string(*parse_filter("greater 512")), "len >= 512");
  EXPECT_EQ(to_string(*parse_filter("less 128")), "len <= 128");
  EXPECT_THROW(parse_filter("portrange 200-100"), bpf::ParseError);
  EXPECT_THROW(parse_filter("portrange 5"), bpf::ParseError);
  EXPECT_THROW(parse_filter("vlan 5000"), bpf::ParseError);
}

TEST(BpfExtensions, Ip6PrimitiveMatchesIpv6Frames) {
  const bpf::Program program = bpf::compile_filter("ip6");
  std::array<std::byte, 80> v6{};
  net::build_ipv6_frame(v6, Ipv6Addr::parse("::1").value(),
                        Ipv6Addr::parse("::2").value(), IpProto::kUdp, 1, 2,
                        80);
  EXPECT_TRUE(bpf::matches(program, v6, 80));

  std::array<std::byte, 64> v4{};
  FlowKey flow;
  flow.proto = IpProto::kUdp;
  net::build_frame(v4, flow, 64, net::MacAddr{}, net::MacAddr{});
  EXPECT_FALSE(bpf::matches(program, v4, 64));
  EXPECT_FALSE(bpf::matches(bpf::compile_filter("ip"), v6, 80));
}

TEST(BpfExtensions, VlanPrimitiveMatchesTagAndVid) {
  FlowKey flow{Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{10, 0, 0, 2}, 7, 8,
               IpProto::kUdp};
  std::array<std::byte, 128> tagged{};
  net::build_vlan_frame(tagged, flow, 77, 68, net::MacAddr{}, net::MacAddr{});
  std::array<std::byte, 64> untagged{};
  net::build_frame(untagged, flow, 64, net::MacAddr{}, net::MacAddr{});

  EXPECT_TRUE(bpf::matches(bpf::compile_filter("vlan"), tagged, 68));
  EXPECT_FALSE(bpf::matches(bpf::compile_filter("vlan"), untagged, 64));
  EXPECT_TRUE(bpf::matches(bpf::compile_filter("vlan 77"), tagged, 68));
  EXPECT_FALSE(bpf::matches(bpf::compile_filter("vlan 78"), tagged, 68));
}

TEST(BpfExtensions, PortRangeSemantics) {
  const auto frame_with_ports = [](std::uint16_t sport, std::uint16_t dport) {
    std::array<std::byte, 64> buf{};
    FlowKey flow{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, sport, dport,
                 IpProto::kTcp};
    net::build_frame(buf, flow, 64, net::MacAddr{}, net::MacAddr{});
    return buf;
  };
  const bpf::Program program = bpf::compile_filter("portrange 100-200");
  EXPECT_TRUE(bpf::matches(program, frame_with_ports(100, 9999), 64));
  EXPECT_TRUE(bpf::matches(program, frame_with_ports(200, 9999), 64));
  EXPECT_TRUE(bpf::matches(program, frame_with_ports(9999, 150), 64));
  EXPECT_FALSE(bpf::matches(program, frame_with_ports(99, 201), 64));
  EXPECT_FALSE(bpf::matches(program, frame_with_ports(9999, 9999), 64));

  const bpf::Program src_only = bpf::compile_filter("src portrange 100-200");
  EXPECT_TRUE(bpf::matches(src_only, frame_with_ports(150, 9999), 64));
  EXPECT_FALSE(bpf::matches(src_only, frame_with_ports(9999, 150), 64));
}

class ExtensionOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExtensionOracleTest, CompiledAgreesWithOracleOnMixedFrames) {
  const bpf::ExprPtr expr = bpf::parse_filter(GetParam());
  const bpf::Program program = bpf::compile(expr.get());
  ASSERT_TRUE(bpf::verify(program).ok);

  Xoshiro256 rng{0xE47};
  int matched = 0;
  for (int i = 0; i < 1500; ++i) {
    std::array<std::byte, 256> buf{};
    std::size_t len = 0;
    const double pick = rng.next_double();
    FlowKey flow = trace::random_flow(rng);
    flow.src_port = static_cast<std::uint16_t>(rng.next_in(1, 400));
    flow.dst_port = static_cast<std::uint16_t>(rng.next_in(1, 400));
    if (pick < 0.4) {
      len = net::build_frame(buf, flow, 64, net::MacAddr{}, net::MacAddr{});
    } else if (pick < 0.7) {
      len = net::build_vlan_frame(
          buf, flow, static_cast<std::uint16_t>(rng.next_below(100)), 68,
          net::MacAddr{}, net::MacAddr{});
    } else {
      Ipv6Addr src, dst;
      for (auto& o : src.octets) o = static_cast<std::uint8_t>(rng.next());
      for (auto& o : dst.octets) o = static_cast<std::uint8_t>(rng.next());
      len = net::build_ipv6_frame(buf, src, dst, flow.proto, flow.src_port,
                                  flow.dst_port, 90);
    }
    const auto frame = std::span<const std::byte>{buf}.first(len);
    const bool vm = bpf::matches(program, frame,
                                 static_cast<std::uint32_t>(len));
    const bool oracle =
        bpf::evaluate(expr.get(), frame, static_cast<std::uint32_t>(len));
    ASSERT_EQ(vm, oracle) << GetParam() << " i=" << i;
    if (vm) ++matched;
  }
  EXPECT_GT(matched, 0) << GetParam();
  EXPECT_LT(matched, 1500) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Filters, ExtensionOracleTest,
                         ::testing::Values("ip6", "vlan", "vlan 42",
                                           "ip6 or vlan",
                                           "portrange 50-250",
                                           "src portrange 100-300 and udp",
                                           "not (ip6 or vlan)",
                                           "greater 70", "less 70",
                                           "ip and not vlan"));

// --- DPDK engine ---

TEST(DpdkEngine, MempoolBoundBuffering) {
  // DPDK's RX lcore keeps the ring drained, so a burst up to roughly
  // the mempool size survives a slow consumer; DNA (ring-bound) loses
  // the same burst.
  const auto run_with = [](apps::EngineKind kind) {
    apps::ExperimentConfig config;
    config.engine.kind = kind;
    config.engine.cells_per_chunk = 256;  // DPDK mempool = 256*100
    config.engine.chunk_count = 100;
    config.num_queues = 1;
    config.x = 300;
    apps::Experiment experiment{config};
    trace::ConstantRateConfig trace_config;
    trace_config.packet_count = 20'000;
    Xoshiro256 rng{0xD9D};
    trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
    trace::ConstantRateSource source{trace_config};
    return experiment.run(source, Nanos::from_seconds(2));
  };
  EXPECT_EQ(run_with(apps::EngineKind::kDpdk).drop_rate(), 0.0);
  EXPECT_GT(run_with(apps::EngineKind::kDna).drop_rate(), 0.5);
}

TEST(DpdkEngine, ConservationAndZeroCopy) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kDpdk;
  config.num_queues = 1;
  config.x = 0;
  apps::Experiment experiment{config};
  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 50'000;
  Xoshiro256 rng{0xD9E};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};
  const auto result = experiment.run(source, Nanos::from_seconds(2));
  EXPECT_EQ(result.sent, result.delivered + result.capture_dropped);
  EXPECT_EQ(result.copies, 0u);
}

TEST(DpdkEngine, AppOffloadRecoversImbalance) {
  const auto run_with = [](apps::EngineKind kind) {
    apps::ExperimentConfig config;
    config.engine.kind = kind;
    config.engine.cells_per_chunk = 64;
    config.engine.chunk_count = 50;  // mempool 3,200
    config.num_queues = 2;
    config.x = 300;
    apps::Experiment experiment{config};
    trace::ConstantRateConfig trace_config;
    trace_config.packet_count = 140'000;
    trace_config.link_bits_per_second = 70e3 * 84 * 8;
    Xoshiro256 rng{0xD9F};
    trace_config.flows = {trace::flow_for_queue(rng, 0, 2)};
    trace::ConstantRateSource source{trace_config};
    return experiment.run(source,
                          Nanos::from_seconds(2) + Nanos::from_seconds(30));
  };
  const auto plain = run_with(apps::EngineKind::kDpdk);
  const auto offload = run_with(apps::EngineKind::kDpdkAppOffload);
  EXPECT_GT(plain.drop_rate(), 0.3);
  EXPECT_LT(offload.drop_rate(), 0.02);
  EXPECT_GT(offload.offloaded_chunks, 0u);
  EXPECT_GT(offload.per_queue[1].processed, 140'000u / 4);
}

TEST(DpdkEngine, HarnessRegistersOneTenantOwningEveryQueue) {
  // The DPDK application's peer group is a tenant: by default one
  // tenant holds every queue, so each queue's peers are all the others.
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kDpdkAppOffload;
  config.num_queues = 3;
  apps::Experiment experiment{config};
  const engines::CaptureEngine& engine = experiment.engine();
  ASSERT_EQ(engine.tenants().size(), 1u);
  EXPECT_EQ(engine.tenants()[0].queues,
            (std::vector<std::uint32_t>{0, 1, 2}));
  for (std::uint32_t q = 0; q < 3; ++q) EXPECT_EQ(engine.tenant_of(q), 0u);
}

TEST(DpdkEngine, RejectsBadGeometry) {
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};
  nic::NicConfig nic_config;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};
  engines::DpdkConfig config;
  config.mempool_size = 512;  // smaller than the 1024 ring
  EXPECT_THROW((engines::DpdkEngine{scheduler, nic, config}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wirecap
