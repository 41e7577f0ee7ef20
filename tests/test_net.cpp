// Unit tests for src/net: byte helpers, checksums, header round-trips,
// flow parsing, Toeplitz RSS (against the published verification
// vectors and the bit-serial reference), packets, and pcap file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>

#include <fstream>
#include <unistd.h>

#include "common/rng.hpp"
#include "net/bytes.hpp"
#include "net/checksum.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/pcapfile.hpp"
#include "net/rss.hpp"

namespace wirecap::net {
namespace {

TEST(Bytes, RoundTrip) {
  std::array<std::byte, 8> buf{};
  write_be16(buf, 0, 0xBEEF);
  write_be32(buf, 2, 0xDEADBEEF);
  write_u8(buf, 6, 0x42);
  EXPECT_EQ(read_be16(buf, 0), 0xBEEF);
  EXPECT_EQ(read_be32(buf, 2), 0xDEADBEEFu);
  EXPECT_EQ(read_u8(buf, 6), 0x42);
  EXPECT_THROW(static_cast<void>(read_be32(buf, 6)), std::out_of_range);
  EXPECT_THROW(write_be16(buf, 7, 1), std::out_of_range);
}

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071: 0001 f203 f4f5 f6f7 -> checksum
  // complement of 2ddf0 folded = ~(ddf2) = 220d.
  const std::array<std::byte, 8> data{
      std::byte{0x00}, std::byte{0x01}, std::byte{0xf2}, std::byte{0x03},
      std::byte{0xf4}, std::byte{0xf5}, std::byte{0xf6}, std::byte{0xf7}};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLength) {
  const std::array<std::byte, 3> data{std::byte{0x01}, std::byte{0x02},
                                      std::byte{0x03}};
  // Words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xFBFD.
  EXPECT_EQ(internet_checksum(data), 0xFBFD);
}

TEST(Checksum, VerifiesToZero) {
  // A buffer with its own checksum inserted sums to 0xFFFF (i.e. the
  // verification checksum is 0).
  std::array<std::byte, 20> header{};
  write_be16(header, 0, 0x4500);
  write_be32(header, 12, Ipv4Addr{131, 225, 2, 10}.value());
  write_be32(header, 16, Ipv4Addr{192, 168, 1, 1}.value());
  const std::uint16_t csum = internet_checksum(header);
  write_be16(header, 10, csum);
  EXPECT_EQ(internet_checksum(header), 0);
}

TEST(Ipv4Addr, FormattingAndPrefix) {
  const Ipv4Addr addr{131, 225, 2, 42};
  EXPECT_EQ(addr.to_string(), "131.225.2.42");
  EXPECT_TRUE(addr.in_prefix(Ipv4Addr{131, 225, 2, 0}, 24));
  EXPECT_TRUE(addr.in_prefix(Ipv4Addr{131, 225, 0, 0}, 16));
  EXPECT_FALSE(addr.in_prefix(Ipv4Addr{131, 225, 3, 0}, 24));
  EXPECT_TRUE(addr.in_prefix(Ipv4Addr{0, 0, 0, 0}, 0));
}

TEST(Headers, BuildAndParseUdpFrame) {
  FlowKey flow;
  flow.src_ip = Ipv4Addr{131, 225, 2, 10};
  flow.dst_ip = Ipv4Addr{192, 168, 7, 7};
  flow.src_port = 40000;
  flow.dst_port = 53;
  flow.proto = IpProto::kUdp;

  std::array<std::byte, 128> buf{};
  const std::size_t n = build_frame(buf, flow, 64, MacAddr::of(1, 2, 3, 4, 5, 6),
                                    MacAddr::of(6, 5, 4, 3, 2, 1), 77);
  EXPECT_EQ(n, 64u);

  const auto eth = parse_ethernet(buf);
  ASSERT_TRUE(eth.has_value());
  EXPECT_EQ(eth->ether_type, kEtherTypeIpv4);

  const auto ip = parse_ipv4(std::span<const std::byte>{buf}.subspan(14));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->src, flow.src_ip);
  EXPECT_EQ(ip->dst, flow.dst_ip);
  EXPECT_EQ(ip->protocol, IpProto::kUdp);
  EXPECT_EQ(ip->total_length, 50);
  EXPECT_EQ(ip->identification, 77);
  // Header checksum must verify.
  EXPECT_EQ(internet_checksum(
                std::span<const std::byte>{buf}.subspan(14, 20)),
            0);

  const auto parsed = parse_flow(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);
}

TEST(Headers, BuildAndParseTcpFrameWithChecksum) {
  FlowKey flow;
  flow.src_ip = Ipv4Addr{10, 0, 0, 1};
  flow.dst_ip = Ipv4Addr{10, 0, 0, 2};
  flow.src_port = 12345;
  flow.dst_port = 443;
  flow.proto = IpProto::kTcp;

  std::array<std::byte, 256> buf{};
  build_frame(buf, flow, 100, MacAddr{}, MacAddr{});
  const auto parsed = parse_flow(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);

  // Verify the TCP checksum over pseudo-header + segment.
  const auto l3 = std::span<const std::byte>{buf}.subspan(14);
  const auto l4 = l3.subspan(20, 100 - 14 - 20);
  std::array<std::byte, 12> pseudo{};
  write_be32(pseudo, 0, flow.src_ip.value());
  write_be32(pseudo, 4, flow.dst_ip.value());
  write_u8(pseudo, 9, 6);
  write_be16(pseudo, 10, static_cast<std::uint16_t>(l4.size()));
  std::uint64_t sum = checksum_partial(pseudo);
  sum = checksum_partial(l4, sum);
  EXPECT_EQ(finish_checksum(sum), 0);
}

TEST(Headers, RejectsTruncated) {
  std::array<std::byte, 10> tiny{};
  EXPECT_FALSE(parse_ethernet(tiny).has_value());
  EXPECT_FALSE(parse_ipv4(tiny).has_value());
  EXPECT_FALSE(parse_flow(tiny).has_value());
  std::array<std::byte, 64> buf{};
  FlowKey flow;
  flow.proto = IpProto::kUdp;
  build_frame(buf, flow, 64, MacAddr{}, MacAddr{});
  EXPECT_THROW(build_frame(std::span<std::byte>{buf}.first(30), flow, 64,
                           MacAddr{}, MacAddr{}),
               std::invalid_argument);
  EXPECT_THROW(build_frame(buf, flow, 10, MacAddr{}, MacAddr{}),
               std::invalid_argument);
}

// The Microsoft RSS verification suite vectors (also in the 82599
// datasheet), using the well-known default key.
struct RssVector {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint32_t l4_hash;   // IPv4 with TCP
  std::uint32_t ip_hash;   // IPv4 only
};

class RssVectors : public ::testing::TestWithParam<RssVector> {};

TEST_P(RssVectors, ToeplitzMatchesPublishedHashes) {
  const RssVector& v = GetParam();
  FlowKey tcp_flow{v.src, v.dst, v.src_port, v.dst_port, IpProto::kTcp};
  EXPECT_EQ(rss_hash(tcp_flow), v.l4_hash);
  // Address-only hash (the NIC's fallback for non-TCP/UDP IP packets).
  FlowKey icmp_flow{v.src, v.dst, 0, 0, IpProto::kIcmp};
  EXPECT_EQ(rss_hash(icmp_flow), v.ip_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Published, RssVectors,
    ::testing::Values(
        RssVector{Ipv4Addr{66, 9, 149, 187}, Ipv4Addr{161, 142, 100, 80},
                  2794, 1766, 0x51ccc178, 0x323e8fc2},
        RssVector{Ipv4Addr{199, 92, 111, 2}, Ipv4Addr{65, 69, 140, 83},
                  14230, 4739, 0xc626b0ea, 0xd718262a},
        RssVector{Ipv4Addr{24, 19, 198, 95}, Ipv4Addr{12, 22, 207, 184},
                  12898, 38024, 0x5c2b394a, 0xd2d0a5de},
        RssVector{Ipv4Addr{38, 27, 205, 30}, Ipv4Addr{209, 142, 163, 6},
                  48228, 2217, 0xafc7327f, 0x82989176},
        RssVector{Ipv4Addr{153, 39, 163, 191}, Ipv4Addr{202, 188, 127, 2},
                  44251, 1303, 0x10e828a2, 0x5d1809c5}));

TEST(Rss, QueueSelectionIsStablePerFlow) {
  FlowKey flow{Ipv4Addr{1, 2, 3, 4}, Ipv4Addr{5, 6, 7, 8}, 1000, 2000,
               IpProto::kTcp};
  const std::uint32_t q = rss_queue(flow, 6);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rss_queue(flow, 6), q);
  EXPECT_LT(q, 6u);
}

TEST(Rss, SpreadsFlowsAcrossQueues) {
  // Many random flows should touch every queue (statistically certain).
  Xoshiro256 rng{42};
  std::array<int, 6> counts{};
  for (int i = 0; i < 6000; ++i) {
    FlowKey flow;
    flow.src_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next() & 0xFFFFFFFFu)};
    flow.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next() & 0xFFFFFFFFu)};
    flow.src_port = static_cast<std::uint16_t>(rng.next());
    flow.dst_port = static_cast<std::uint16_t>(rng.next());
    flow.proto = IpProto::kTcp;
    ++counts[rss_queue(flow, 6)];
  }
  for (const int c : counts) EXPECT_GT(c, 500);
}

// The table-driven rss_hash helpers against the bit-serial toeplitz_hash
// reference, over seeded random tuples of every input length the NIC
// hashes: IPv4 addresses (8 B), IPv4 + ports (12 B), IPv6 addresses
// (32 B) and IPv6 + ports (36 B).
TEST(Rss, TableMatchesBitSerialIpv4) {
  Xoshiro256 rng{0x7AB1E};
  for (int i = 0; i < 10'000; ++i) {
    FlowKey flow;
    flow.src_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
    flow.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
    flow.src_port = static_cast<std::uint16_t>(rng.next());
    flow.dst_port = static_cast<std::uint16_t>(rng.next());
    std::array<std::uint8_t, 12> input{};
    const std::span<std::byte> bytes = std::as_writable_bytes(std::span{input});
    write_be32(bytes, 0, flow.src_ip.value());
    write_be32(bytes, 4, flow.dst_ip.value());
    write_be16(bytes, 8, flow.src_port);
    write_be16(bytes, 10, flow.dst_port);

    flow.proto = (i % 2 == 0) ? IpProto::kTcp : IpProto::kUdp;
    ASSERT_EQ(rss_hash(flow), toeplitz_hash(input, kDefaultRssKey)) << i;
    flow.proto = IpProto::kIcmp;  // addresses only
    ASSERT_EQ(rss_hash(flow),
              toeplitz_hash(std::span{input}.first(8), kDefaultRssKey))
        << i;
  }
}

TEST(Rss, TableMatchesBitSerialIpv6) {
  Xoshiro256 rng{0x7AB1E6};
  for (int i = 0; i < 10'000; ++i) {
    std::array<std::uint8_t, 36> input{};
    for (std::uint8_t& byte : input) byte = static_cast<std::uint8_t>(rng.next());
    Ipv6Addr src;
    Ipv6Addr dst;
    std::copy_n(input.begin(), 16, src.octets.begin());
    std::copy_n(input.begin() + 16, 16, dst.octets.begin());
    const auto src_port =
        static_cast<std::uint16_t>((input[32] << 8) | input[33]);
    const auto dst_port =
        static_cast<std::uint16_t>((input[34] << 8) | input[35]);
    ASSERT_EQ(rss_hash_ipv6(src, dst, src_port, dst_port, true),
              toeplitz_hash(input, kDefaultRssKey))
        << i;
    ASSERT_EQ(rss_hash_ipv6(src, dst, src_port, dst_port, false),
              toeplitz_hash(std::span{input}.first(32), kDefaultRssKey))
        << i;
  }
}

TEST(WirePacket, MaterializesRealFrame) {
  FlowKey flow{Ipv4Addr{131, 225, 2, 1}, Ipv4Addr{10, 1, 1, 1}, 5000, 80,
               IpProto::kTcp};
  const auto pkt = WirePacket::make(Nanos{1000}, flow, 64, 7);
  EXPECT_EQ(pkt.wire_len(), 64u);
  EXPECT_EQ(pkt.seq(), 7u);
  const auto parsed = parse_flow(pkt.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);
}

TEST(WirePacket, LargeFrameSnapsHeaders) {
  FlowKey flow{Ipv4Addr{1, 1, 1, 1}, Ipv4Addr{2, 2, 2, 2}, 1, 2,
               IpProto::kUdp};
  const auto pkt = WirePacket::make(Nanos{0}, flow, 1518);
  EXPECT_EQ(pkt.wire_len(), 1518u);
  EXPECT_EQ(pkt.snap_len(), WirePacket::kSnapBytes);
  const auto parsed = parse_flow(pkt.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);
  // The embedded IP total_length reflects the true wire length.
  const auto ip = parse_ipv4(pkt.bytes().subspan(14));
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->total_length, 1518 - 14);
}

TEST(WirePacket, MinimumSizeEnforced) {
  FlowKey flow;
  flow.proto = IpProto::kUdp;
  const auto pkt = WirePacket::make(Nanos{0}, flow, 10);
  EXPECT_GE(pkt.wire_len(), min_frame_len(IpProto::kUdp));
}

class PcapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("wirecap_test_" + std::to_string(::getpid()) + ".pcap");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(PcapFileTest, RoundTripNanosecond) {
  FlowKey flow{Ipv4Addr{131, 225, 2, 9}, Ipv4Addr{8, 8, 8, 8}, 999, 53,
               IpProto::kUdp};
  {
    PcapWriter writer{path_};
    for (int i = 0; i < 10; ++i) {
      const auto pkt = WirePacket::make(
          Nanos{1'000'000'000LL + i * 1'000'000LL + 123}, flow, 64,
          static_cast<std::uint64_t>(i));
      writer.write(pkt);
    }
    EXPECT_EQ(writer.records_written(), 10u);
  }
  PcapReader reader{path_};
  EXPECT_TRUE(reader.nanosecond());
  EXPECT_EQ(reader.linktype(), kLinktypeEthernet);
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records[0].timestamp.count(), 1'000'000'123LL);
  EXPECT_EQ(records[3].timestamp.count(), 1'003'000'123LL);
  EXPECT_EQ(records[0].orig_len, 64u);
  const auto parsed = parse_flow(records[0].data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flow);
}

TEST_F(PcapFileTest, MicrosecondVariant) {
  {
    PcapWriter writer{path_, 65535, /*nanosecond=*/false};
    std::array<std::byte, 60> data{};
    writer.write(Nanos{5'000'001'500LL}, data, 60);
  }
  PcapReader reader{path_};
  EXPECT_FALSE(reader.nanosecond());
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  // Microsecond resolution truncates the 500 ns.
  EXPECT_EQ(record->timestamp.count(), 5'000'001'000LL);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapFileTest, DestructorFlushesUnclosedTail) {
  // Regression: a writer destroyed without close() used to lose its
  // buffered tail bytes; the destructor must flush so the last packet
  // survives a crashless-but-careless teardown.
  FlowKey flow{Ipv4Addr{131, 225, 2, 9}, Ipv4Addr{8, 8, 8, 8}, 999, 53,
               IpProto::kUdp};
  {
    auto writer = std::make_unique<PcapWriter>(path_);
    for (int i = 0; i < 7; ++i) {
      writer->write(WirePacket::make(Nanos{1'000LL * (i + 1)}, flow, 64,
                                     static_cast<std::uint64_t>(i)));
    }
    writer.reset();  // destructor, no close()
  }
  PcapReader reader{path_};
  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records.back().timestamp.count(), 7'000LL);
  EXPECT_EQ(records.back().orig_len, 64u);
}

TEST_F(PcapFileTest, RejectsGarbage) {
  {
    std::ofstream out{path_, std::ios::binary};
    out << "this is not a pcap file at all";
  }
  EXPECT_THROW(PcapReader{path_}, std::runtime_error);
}

}  // namespace
}  // namespace wirecap::net
