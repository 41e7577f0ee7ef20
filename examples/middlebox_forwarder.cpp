// Middlebox: capture -> inspect/modify in flight -> zero-copy forward.
//
// §3.2.2b and Figure 13: "an application can use ring buffer pools as
// its own data buffers ... and forward a captured packet by simply
// attaching it to a specific transmit queue, potentially after the
// packet has been analyzed and/or modified.  The packet itself is not
// copied."
//
// This example implements a small NAT-ish middlebox on top of the raw
// engine API: packets arrive on NIC1, matching flows get their
// destination rewritten (with a correct incremental checksum update),
// and every packet leaves through NIC2 without a single payload copy.
// The egress tap verifies the rewrite actually happened on the wire.
#include <cstdio>
#include <memory>

#include "apps/harness.hpp"
#include "apps/pkt_handler.hpp"
#include "bpf/codegen.hpp"
#include "bpf/predecode.hpp"
#include "net/bytes.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"
#include "nic/device.hpp"
#include "nic/wire.hpp"
#include "trace/constant_rate.hpp"

using namespace wirecap;

namespace {

/// Rewrites the IPv4 destination address in place and fixes the header
/// checksum incrementally (RFC 1624).
void rewrite_destination(std::span<std::byte> frame, net::Ipv4Addr new_dst) {
  auto l3 = frame.subspan(net::kEthernetHeaderLen);
  const std::uint32_t old_dst = net::read_be32(l3, 16);
  const std::uint32_t new_val = new_dst.value();
  if (old_dst == new_val) return;
  net::write_be32(l3, 16, new_val);
  // Incremental checksum: HC' = ~(~HC + ~m + m') per 16-bit field.
  std::uint32_t sum = static_cast<std::uint16_t>(~net::read_be16(l3, 10));
  sum += static_cast<std::uint16_t>(~(old_dst >> 16)) & 0xFFFF;
  sum += static_cast<std::uint16_t>(~(old_dst & 0xFFFF)) & 0xFFFF;
  sum += new_val >> 16;
  sum += new_val & 0xFFFF;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  net::write_be16(l3, 10, static_cast<std::uint16_t>(~sum & 0xFFFF));
}

}  // namespace

int main() {
  std::puts("WireCAP middlebox: inspect, rewrite, zero-copy forward");

  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};

  nic::NicConfig nic1_config;
  nic1_config.nic_id = 1;
  nic::MultiQueueNic nic1{scheduler, bus, nic1_config};
  nic::NicConfig nic2_config;
  nic2_config.nic_id = 2;
  nic::MultiQueueNic nic2{scheduler, bus, nic2_config};

  apps::EngineParams engine_params;
  engine_params.cells_per_chunk = 128;
  engine_params.chunk_count = 160;  // 20,480-packet pool: absorbs the whole burst
  auto engine_ptr = apps::make_engine(engine_params, scheduler, nic1,
                                      sim::CostModel{});
  engines::CaptureEngine& engine = *engine_ptr;
  sim::SimCore middlebox_core{scheduler, 0};

  // Policy: DNS traffic to the old resolver is redirected.
  const net::Ipv4Addr old_resolver{10, 0, 0, 53};
  const net::Ipv4Addr new_resolver{10, 0, 9, 9};
  const bpf::Predecoded redirect_filter{
      bpf::compile_filter("udp and dst host 10.0.0.53")};

  // Egress tap: verify what actually leaves NIC2.
  std::uint64_t forwarded = 0, redirected_on_wire = 0, checksum_ok = 0;
  nic2.set_egress([&](const net::WirePacket& packet) {
    ++forwarded;
    const auto l3 = packet.bytes().subspan(net::kEthernetHeaderLen);
    const auto ip = net::parse_ipv4(l3);
    if (ip && ip->dst == new_resolver) ++redirected_on_wire;
    // A valid IPv4 header checksums to zero.
    if (ip && net::internet_checksum(l3.first(net::kIpv4MinHeaderLen)) == 0) {
      ++checksum_ok;
    }
  });

  // The middlebox thread: x=30 emulates moderate inspection cost; the
  // hook does the actual rewrite on the pool cell — in place, zero copy.
  const sim::CostModel costs;
  std::uint64_t redirected = 0;
  apps::PktHandlerConfig handler_config;
  handler_config.x = 30;
  handler_config.filter = "";
  handler_config.execute_filter = false;
  handler_config.forward = apps::ForwardTarget{&nic2, 0};
  apps::PktHandler middlebox{middlebox_core, engine, 0, handler_config,
                             costs};
  middlebox.set_packet_hook([&](const engines::CaptureView& view) {
    if (redirect_filter.matches(view.bytes, view.wire_len)) {
      rewrite_destination(view.bytes, new_resolver);
      ++redirected;
    }
  });

  // Traffic: a DNS flow to the old resolver interleaved with web
  // traffic, 20,000 packets at 1 Mp/s.
  trace::ConstantRateConfig traffic;
  traffic.packet_count = 20'000;
  traffic.link_bits_per_second = 1e6 * 84 * 8;
  traffic.flows = {
      net::FlowKey{net::Ipv4Addr{172, 16, 0, 5}, old_resolver, 5353, 53,
                   net::IpProto::kUdp},
      net::FlowKey{net::Ipv4Addr{172, 16, 0, 5}, net::Ipv4Addr{93, 184, 216, 34},
                   40000, 443, net::IpProto::kTcp},
  };
  trace::ConstantRateSource source{traffic};
  nic::TrafficInjector injector{scheduler, source, nic1};
  injector.start();
  scheduler.run_until(Nanos::from_seconds(5));

  std::printf("\ningress:   %llu packets (%llu dropped at the NIC)\n",
              static_cast<unsigned long long>(injector.injected()),
              static_cast<unsigned long long>(nic1.total_rx_dropped()));
  std::printf("rewritten: %llu (DNS to %s redirected to %s)\n",
              static_cast<unsigned long long>(redirected),
              old_resolver.to_string().c_str(),
              new_resolver.to_string().c_str());
  std::printf("egress:    %llu packets, %llu carrying the new destination, "
              "%llu with valid checksums\n",
              static_cast<unsigned long long>(forwarded),
              static_cast<unsigned long long>(redirected_on_wire),
              static_cast<unsigned long long>(checksum_ok));
  std::printf("copies on the forwarding path: %llu (zero-copy: only "
              "burst-tail rescues)\n",
              static_cast<unsigned long long>(engine.queue_stats(0).copies));
  return 0;
}
