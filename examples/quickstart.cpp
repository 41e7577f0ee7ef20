// Quickstart: capture packets with WireCAP through the
// libpcap-compatible interface.
//
// This example builds the smallest complete pipeline:
//
//   traffic generator -> simulated 10 GbE NIC -> WireCAP engine
//     -> PcapHandle (libpcap-style open/filter/loop) -> your callback
//
// and prints the first few captured packets plus the capture statistics.
// Everything runs on the deterministic simulation clock; see
// live_capture.cpp for the same pipeline on real threads.
#include <cstdio>

#include "apps/harness.hpp"
#include "net/headers.hpp"
#include "nic/device.hpp"
#include "nic/wire.hpp"
#include "pcapcompat/pcap_compat.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

using namespace wirecap;

int main() {
  std::puts("WireCAP quickstart\n==================");

  // 1. The simulation fabric: a scheduler (virtual time), an I/O bus,
  //    and a single-queue 10 GbE NIC.
  sim::Scheduler scheduler;
  sim::IoBus bus{scheduler};  // unconstrained
  nic::NicConfig nic_config;
  nic_config.rx_ring_size = 1024;
  nic::MultiQueueNic nic{scheduler, bus, nic_config};

  // 2. The WireCAP engine: a ring buffer pool of R=100 chunks x M=256
  //    cells per receive queue, managed by a dedicated capture thread.
  //    apps::make_engine builds any EngineKind (kWirecapBasic is the
  //    default; kPfRing, kDpdk, ...), so swapping engines is a one-field
  //    change.
  apps::EngineParams engine_params;
  engine_params.cells_per_chunk = 256;  // M
  engine_params.chunk_count = 100;      // R
  auto engine = apps::make_engine(engine_params, scheduler, nic,
                                  sim::CostModel{});

  // 3. A libpcap-compatible handle, like pcap_open_live + pcap_setfilter.
  sim::SimCore app_core{scheduler, /*id=*/0};
  pcap::PcapHandle handle{scheduler, *engine, nic, /*queue=*/0, app_core};
  handle.set_filter(pcap::PcapHandle::compile("udp and 131.225.2"));

  // 4. Some traffic: 10,000 64-byte packets at wire rate, alternating a
  //    matching UDP flow and a non-matching TCP flow.
  trace::ConstantRateConfig traffic;
  traffic.packet_count = 10'000;
  traffic.flows = {
      net::FlowKey{net::Ipv4Addr{131, 225, 2, 7}, net::Ipv4Addr{8, 8, 8, 8},
                   40001, 53, net::IpProto::kUdp},
      net::FlowKey{net::Ipv4Addr{192, 168, 1, 1}, net::Ipv4Addr{8, 8, 4, 4},
                   40002, 443, net::IpProto::kTcp},
  };
  trace::ConstantRateSource source{traffic};
  nic::TrafficInjector injector{scheduler, source, nic};
  injector.start();

  // 5. pcap_loop: handle 5 matching packets, printing each.
  std::puts("\nfirst five matching packets:");
  handle.loop(5, [](const pcap::PacketHeader& header,
                    std::span<const std::byte> data) {
    const auto flow = net::parse_flow(data);
    std::printf("  %9.3f us  %4u bytes  %s\n",
                static_cast<double>(header.ts_ns) / 1000.0, header.len,
                flow ? flow->to_string().c_str() : "(non-IP)");
  });

  // 6. Drain the rest of the experiment and report statistics.  (Note:
  //    like libpcap, loop(0, ...) would run forever on a live capture —
  //    advance the clock explicitly, then collect what is buffered.)
  scheduler.run_until(Nanos::from_seconds(1));
  int matched = 5;
  handle.dispatch(0, [&](const pcap::PacketHeader&, std::span<const std::byte>) {
    ++matched;
  });
  const pcap::Stats stats = handle.stats();
  std::printf("\ncaptured %llu packets, %d matched the filter\n",
              static_cast<unsigned long long>(stats.ps_recv), matched);
  std::printf("drops: %llu delivery, %llu interface (lossless as promised)\n",
              static_cast<unsigned long long>(stats.ps_drop),
              static_cast<unsigned long long>(stats.ps_ifdrop));
  return 0;
}
