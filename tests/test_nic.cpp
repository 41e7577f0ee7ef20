// Tests for the NIC hardware model: RX ring state machine, descriptor
// exhaustion drops, the internal RX FIFO, steering policies, the DMA
// path (bytes actually land in attached buffers), TX serialization, and
// the traffic injector.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/rss.hpp"
#include "nic/device.hpp"
#include "nic/rx_ring.hpp"
#include "nic/steering.hpp"
#include "nic/wire.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::nic {
namespace {

net::FlowKey test_flow(std::uint16_t src_port = 1000) {
  return net::FlowKey{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                      src_port, 80, net::IpProto::kUdp};
}

// --- RxRing state machine ---

class RxRingTest : public ::testing::Test {
 protected:
  RxRing ring_{4};
  std::vector<std::byte> memory_ = std::vector<std::byte>(4 * 128);

  DmaBuffer buffer(std::uint64_t cookie) {
    return DmaBuffer{{memory_.data() + cookie * 128, 128}, cookie};
  }
};

TEST_F(RxRingTest, InitialStateEmpty) {
  EXPECT_EQ(ring_.size(), 4u);
  EXPECT_EQ(ring_.empty_slots(), 4u);
  EXPECT_FALSE(ring_.can_receive());
  EXPECT_FALSE(ring_.has_filled());
  EXPECT_EQ(ring_.ready_count(), 0u);
}

TEST_F(RxRingTest, AttachMakesReady) {
  EXPECT_TRUE(ring_.attach(buffer(0)));
  EXPECT_TRUE(ring_.can_receive());
  EXPECT_EQ(ring_.ready_count(), 1u);
  EXPECT_EQ(ring_.empty_slots(), 3u);
}

TEST_F(RxRingTest, FullRingRefusesAttach) {
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(ring_.attach(buffer(i)));
  EXPECT_FALSE(ring_.attach(buffer(0)));
}

TEST_F(RxRingTest, DmaLifecycle) {
  ring_.attach(buffer(7 % 4));
  const std::uint32_t index = ring_.begin_dma();
  EXPECT_FALSE(ring_.can_receive());
  EXPECT_FALSE(ring_.has_filled());  // in flight, not yet visible
  RxWriteback writeback;
  writeback.length = 60;
  writeback.seq = 42;
  ring_.complete_dma(index, writeback);
  ASSERT_TRUE(ring_.has_filled());
  EXPECT_EQ(ring_.filled_count(), 1u);
  EXPECT_EQ(ring_.peek_writeback().seq, 42u);
  const auto consumed = ring_.consume();
  EXPECT_EQ(consumed.writeback.length, 60u);
  EXPECT_EQ(ring_.empty_slots(), 4u);
}

TEST_F(RxRingTest, FifoOrderAcrossWrap) {
  // Cycle 3 batches through the 4-slot ring; cookies must come back in
  // attach order every time.
  std::uint64_t next_cookie = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) ring_.attach(buffer((next_cookie++) % 4));
    for (int i = 0; i < 4; ++i) {
      const auto index = ring_.begin_dma();
      RxWriteback writeback;
      writeback.seq = static_cast<std::uint64_t>(round * 4 + i);
      ring_.complete_dma(index, writeback);
    }
    for (int i = 0; i < 4; ++i) {
      const auto consumed = ring_.consume();
      EXPECT_EQ(consumed.writeback.seq,
                static_cast<std::uint64_t>(round * 4 + i));
    }
  }
}

TEST_F(RxRingTest, MisuseThrows) {
  EXPECT_THROW(ring_.begin_dma(), std::logic_error);
  EXPECT_THROW(ring_.consume(), std::logic_error);
  EXPECT_THROW(static_cast<void>(ring_.peek_writeback()), std::logic_error);
  ring_.attach(buffer(0));
  const auto index = ring_.begin_dma();
  ring_.complete_dma(index, RxWriteback{});
  EXPECT_THROW(ring_.complete_dma(index, RxWriteback{}), std::logic_error);
  EXPECT_THROW(ring_.attach(DmaBuffer{}), std::invalid_argument);
}

TEST(RxRing, FilledCountMatchesRecountUnderOutOfOrderCompletion) {
  // filled_count() reads a completion cursor; the reference recounts
  // contiguous kFilled descriptors from the consume position by state.
  // Random attach / begin / out-of-order complete / consume steps, with
  // an occasional reset() while nothing is in flight.
  constexpr std::uint32_t kSize = 16;
  RxRing ring{kSize};
  std::vector<std::byte> memory(kSize * 64);
  const auto recount = [&ring](std::uint32_t from) {
    std::uint32_t n = 0;
    while (n < ring.size() &&
           ring.state_at((from + n) % ring.size()) == RxDescState::kFilled) {
      ++n;
    }
    return n;
  };
  Xoshiro256 rng{0xF111ED};
  std::vector<std::uint32_t> in_flight;
  std::uint32_t consume_at = 0;  // ring index of the consume cursor
  std::uint64_t cookie = 0;
  int resets = 0;
  for (int step = 0; step < 20'000; ++step) {
    switch (rng.next_below(5)) {
      case 0:
        if (ring.empty_slots() > 0) {
          ring.attach(DmaBuffer{{memory.data() + (cookie % kSize) * 64, 64},
                                cookie});
          ++cookie;
        }
        break;
      case 1:
        if (ring.can_receive()) in_flight.push_back(ring.begin_dma());
        break;
      case 2:
        if (!in_flight.empty()) {
          const std::size_t pick = rng.next_below(in_flight.size());
          ring.complete_dma(in_flight[pick], RxWriteback{});
          in_flight.erase(in_flight.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        }
        break;
      case 3:
        if (ring.has_filled()) {
          ring.consume();
          consume_at = (consume_at + 1) % kSize;
        }
        break;
      case 4:
        if (in_flight.empty() && rng.next_below(50) == 0) {
          ring.reset();
          consume_at = 0;
          ++resets;
          ASSERT_EQ(ring.filled_count(), 0u);
        }
        break;
    }
    ASSERT_EQ(ring.filled_count(), recount(consume_at)) << "step " << step;
    ASSERT_EQ(ring.has_filled(), recount(consume_at) > 0) << "step " << step;
  }
  EXPECT_GT(resets, 0);
}

// --- steering ---

TEST(Steering, RssIsPerFlowStable) {
  RssSteering rss;
  const auto p1 = net::WirePacket::make(Nanos{0}, test_flow(1), 64);
  const auto p2 = net::WirePacket::make(Nanos{1}, test_flow(1), 64);
  EXPECT_EQ(rss.select_queue(p1, 6), rss.select_queue(p2, 6));
  EXPECT_EQ(rss.select_queue(p1, 6), net::rss_queue(test_flow(1), 6));
}

TEST(Steering, RoundRobinCycles) {
  RoundRobinSteering rr;
  const auto p = net::WirePacket::make(Nanos{0}, test_flow(), 64);
  for (std::uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(rr.select_queue(p, 4), i % 4);
  }
}

TEST(Steering, RoundRobinSplitsOneFlow) {
  // The §2.3 strawman: round-robin spreads even a single flow across
  // queues, breaking application logic.
  RoundRobinSteering rr;
  const auto p = net::WirePacket::make(Nanos{0}, test_flow(), 64);
  EXPECT_NE(rr.select_queue(p, 4), rr.select_queue(p, 4));
}

TEST(Steering, FlowDirectorProgramAndFallback) {
  FlowDirectorSteering fdir{2};
  const auto p = net::WirePacket::make(Nanos{0}, test_flow(), 64);
  const std::uint32_t rss_choice = net::rss_queue(test_flow(), 8);
  EXPECT_EQ(fdir.select_queue(p, 8), rss_choice);  // miss -> RSS
  EXPECT_TRUE(fdir.program(test_flow(), (rss_choice + 1) % 8));
  EXPECT_EQ(fdir.select_queue(p, 8), (rss_choice + 1) % 8);
  // Capacity enforcement.
  EXPECT_TRUE(fdir.program(test_flow(2), 0));
  EXPECT_FALSE(fdir.program(test_flow(3), 0));
  fdir.remove(test_flow());
  EXPECT_EQ(fdir.select_queue(p, 8), rss_choice);
}

// --- device ---

class NicFixture : public ::testing::Test {
 protected:
  NicFixture() : bus_(scheduler_) {}

  MultiQueueNic make_nic(NicConfig config) {
    return MultiQueueNic{scheduler_, bus_, config};
  }

  /// Attach `count` buffers to queue 0 of `nic`.
  void attach(MultiQueueNic& nic, std::uint32_t count) {
    memory_.resize(static_cast<std::size_t>(count) * 2048);
    for (std::uint32_t i = 0; i < count; ++i) {
      nic.rx_ring(0).attach(
          DmaBuffer{{memory_.data() + i * 2048, 2048}, i});
    }
    nic.kick(0);
  }

  sim::Scheduler scheduler_;
  sim::IoBus bus_;
  std::vector<std::byte> memory_;
};

TEST_F(NicFixture, DmaWritesPacketBytesIntoBuffer) {
  NicConfig config;
  config.num_rx_queues = 1;
  config.rx_ring_size = 8;
  auto nic = make_nic(config);
  attach(nic, 8);

  const auto packet = net::WirePacket::make(Nanos{100}, test_flow(), 64, 5);
  nic.receive(packet);
  scheduler_.run();

  RxRing& ring = nic.rx_ring(0);
  ASSERT_TRUE(ring.has_filled());
  const auto consumed = ring.consume();
  EXPECT_EQ(consumed.writeback.seq, 5u);
  EXPECT_EQ(consumed.writeback.wire_length, 64u);
  EXPECT_EQ(consumed.writeback.timestamp, Nanos{100});
  // The DMA'd bytes are the real frame: parse them back.
  const auto flow = net::parse_flow(
      consumed.buffer.data.first(consumed.writeback.length));
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(*flow, test_flow());
  EXPECT_EQ(nic.rx_stats(0).received, 1u);
}

TEST_F(NicFixture, DropsWhenNoDescriptorAndFifoFull) {
  NicConfig config;
  config.num_rx_queues = 1;
  config.rx_ring_size = 4;
  config.rx_fifo_bytes = 2 * 128;  // room for two 64-byte frames
  auto nic = make_nic(config);
  attach(nic, 4);

  for (int i = 0; i < 10; ++i) {
    nic.receive(net::WirePacket::make(Nanos{i}, test_flow(), 64,
                                      static_cast<std::uint64_t>(i)));
  }
  scheduler_.run();
  // 4 into the ring, 2 into the FIFO, 4 dropped.
  EXPECT_EQ(nic.rx_stats(0).received, 4u);
  EXPECT_EQ(nic.rx_stats(0).fifo_buffered, 2u);
  EXPECT_EQ(nic.rx_stats(0).dropped, 4u);
  EXPECT_EQ(nic.total_rx_dropped(), 4u);
}

TEST_F(NicFixture, KickDrainsFifoIntoRefilledRing) {
  NicConfig config;
  config.num_rx_queues = 1;
  config.rx_ring_size = 2;
  auto nic = make_nic(config);
  attach(nic, 2);

  for (int i = 0; i < 4; ++i) {
    nic.receive(net::WirePacket::make(Nanos{i}, test_flow(), 64,
                                      static_cast<std::uint64_t>(i)));
  }
  scheduler_.run();
  EXPECT_EQ(nic.rx_stats(0).received, 2u);  // ring full, 2 wait in FIFO

  // Consume both and refill: the FIFO drains in arrival order.
  RxRing& ring = nic.rx_ring(0);
  EXPECT_EQ(ring.consume().writeback.seq, 0u);
  EXPECT_EQ(ring.consume().writeback.seq, 1u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    ring.attach(DmaBuffer{{memory_.data() + i * 2048, 2048}, i});
  }
  nic.kick(0);
  scheduler_.run();
  EXPECT_EQ(nic.rx_stats(0).received, 4u);
  EXPECT_EQ(ring.consume().writeback.seq, 2u);
  EXPECT_EQ(ring.consume().writeback.seq, 3u);
}

TEST_F(NicFixture, FifoFootprintUsesSlotGranularity) {
  NicConfig config;
  config.num_rx_queues = 1;
  config.rx_ring_size = 1;
  config.rx_fifo_bytes = 512;   // 4 slots of 128
  config.rx_fifo_slot_bytes = 128;
  auto nic = make_nic(config);
  attach(nic, 1);

  // First packet takes the descriptor.  A 200-byte frame occupies two
  // 128-byte slots, so only two fit in the 512-byte FIFO.
  for (int i = 0; i < 4; ++i) {
    nic.receive(net::WirePacket::make(Nanos{i}, test_flow(), 200,
                                      static_cast<std::uint64_t>(i)));
  }
  scheduler_.run();
  EXPECT_EQ(nic.rx_stats(0).fifo_buffered, 2u);
  EXPECT_EQ(nic.rx_stats(0).dropped, 1u);
}

TEST_F(NicFixture, RxInterruptFiresPerCompletion) {
  NicConfig config;
  config.num_rx_queues = 1;
  config.rx_ring_size = 8;
  auto nic = make_nic(config);
  attach(nic, 8);
  int interrupts = 0;
  nic.set_rx_interrupt(0, [&] { ++interrupts; });
  for (int i = 0; i < 5; ++i) {
    nic.receive(net::WirePacket::make(Nanos{i}, test_flow(), 64));
  }
  scheduler_.run();
  EXPECT_EQ(interrupts, 5);
}

TEST_F(NicFixture, SteersAcrossQueues) {
  NicConfig config;
  config.num_rx_queues = 4;
  config.rx_ring_size = 64;
  auto nic = make_nic(config);
  std::vector<std::vector<std::byte>> cells(4);
  for (std::uint32_t q = 0; q < 4; ++q) {
    cells[q].resize(64 * 2048);
    for (std::uint32_t i = 0; i < 64; ++i) {
      nic.rx_ring(q).attach(DmaBuffer{{cells[q].data() + i * 2048, 2048}, i});
    }
  }

  Xoshiro256 rng{11};
  std::array<std::uint64_t, 4> expected{};
  for (int i = 0; i < 200; ++i) {
    const auto flow = trace::random_flow(rng);
    ++expected[net::rss_queue(flow, 4)];
    nic.receive(net::WirePacket::make(Nanos{i}, flow, 64));
  }
  scheduler_.run();
  for (std::uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(nic.rx_stats(q).received + nic.rx_stats(q).dropped, expected[q]);
  }
}

TEST_F(NicFixture, TransmitSerializesAtLineRate) {
  NicConfig config;
  config.num_tx_queues = 1;
  auto nic = make_nic(config);
  std::vector<std::int64_t> egress_times;
  nic.set_egress([&](const net::WirePacket&) {
    egress_times.push_back(scheduler_.now().count());
  });

  const auto packet = net::WirePacket::make(Nanos{0}, test_flow(), 64);
  std::vector<std::byte> frame{packet.bytes().begin(), packet.bytes().end()};
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    TxRequest request;
    request.frame = frame;
    request.wire_length = 64;
    request.on_complete = [&] { ++completions; };
    EXPECT_TRUE(nic.transmit(0, std::move(request)));
  }
  scheduler_.run();
  EXPECT_EQ(completions, 3);
  ASSERT_EQ(egress_times.size(), 3u);
  // 64 + 20 bytes at 10 Gb/s = 67.2 ns per frame.
  EXPECT_NEAR(static_cast<double>(egress_times[0]), 67.2, 1.0);
  EXPECT_NEAR(static_cast<double>(egress_times[2] - egress_times[1]), 67.2,
              2.0);
  EXPECT_EQ(nic.total_transmitted(), 3u);
}

TEST_F(NicFixture, TxRingFullDrops) {
  NicConfig config;
  config.tx_ring_size = 2;
  auto nic = make_nic(config);
  const auto packet = net::WirePacket::make(Nanos{0}, test_flow(), 64);
  std::vector<std::byte> frame{packet.bytes().begin(), packet.bytes().end()};
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    TxRequest request;
    request.frame = frame;
    request.wire_length = 64;
    if (nic.transmit(0, std::move(request))) ++accepted;
  }
  // The first transmit starts immediately (popped from the queue by the
  // drain loop via the synchronous unconstrained bus), freeing a slot.
  EXPECT_GE(accepted, 2);
  EXPECT_GT(nic.tx_stats(0).dropped, 0u);
}

TEST_F(NicFixture, InjectorDeliversAtTimestamps) {
  NicConfig config;
  config.rx_ring_size = 32;
  auto nic = make_nic(config);
  attach(nic, 32);

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 10;
  trace_config.flows = {test_flow()};
  trace::ConstantRateSource source{trace_config};
  TrafficInjector injector{scheduler_, source, nic};
  injector.start();
  scheduler_.run();
  EXPECT_EQ(injector.injected(), 10u);
  EXPECT_EQ(nic.rx_stats(0).received, 10u);
  // Clock advanced to the last packet's timestamp (9 intervals).
  EXPECT_NEAR(static_cast<double>(scheduler_.now().count()), 9 * 67.2, 2.0);
}

}  // namespace
}  // namespace wirecap::nic
