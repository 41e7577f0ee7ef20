// Tests for the WireCAP kernel-side substrate: the ring-buffer-pool
// state machine, strict recycle validation (including a metadata fuzz
// sweep — §3.2.2c safety), and the per-queue driver's capture, partial
// rescue, replenish, and transmit paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/rng.hpp"
#include "driver/chunk_pool.hpp"
#include "driver/wirecap_driver.hpp"
#include "nic/device.hpp"
#include "nic/wire.hpp"
#include "trace/constant_rate.hpp"

namespace wirecap::driver {
namespace {

net::FlowKey test_flow() {
  return net::FlowKey{net::Ipv4Addr{10, 1, 0, 1}, net::Ipv4Addr{10, 1, 0, 2},
                      7777, 80, net::IpProto::kUdp};
}

// --- RingBufferPool ---

TEST(RingBufferPool, Geometry) {
  RingBufferPool pool{1, 0, 64, 10, 2048};
  EXPECT_EQ(pool.capacity_packets(), 640u);
  // Memory accounting keeps the modelled 2 KB cells ...
  EXPECT_EQ(pool.cell_size(), 2048u);
  EXPECT_EQ(pool.memory_bytes(), 640u * 2048u);
  EXPECT_EQ(pool.free_chunks(), 10u);
  // ... while a cell's span is only what the wire can write into it.
  EXPECT_EQ(pool.cell_stride(), net::WirePacket::kSnapBytes);
  EXPECT_EQ(pool.cell(0, 0).size(), net::WirePacket::kSnapBytes);
  EXPECT_EQ(pool.chunk_bytes(0).size(), 64u * net::WirePacket::kSnapBytes);
  EXPECT_THROW(static_cast<void>(pool.cell(10, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(pool.cell(0, 64)), std::out_of_range);
  EXPECT_THROW((RingBufferPool{0, 0, 0, 1}), std::invalid_argument);
  // A cell smaller than the snap length is backed in full.
  RingBufferPool small{1, 0, 4, 2, 32};
  EXPECT_EQ(small.cell(0, 0).size(), 32u);
  EXPECT_EQ(small.memory_bytes(), 8u * 32u);
}

TEST(RingBufferPool, CellsAreContiguousPerChunk) {
  // "A chunk of packet buffers ... occupy physically contiguous memory":
  // adjacent cells, and adjacent chunks, sit one cell span apart.
  for (const std::uint32_t cell_size : {256u, 48u}) {
    RingBufferPool pool{1, 0, 4, 2, cell_size};
    const std::size_t span = std::min<std::size_t>(
        cell_size, net::WirePacket::kSnapBytes);
    EXPECT_EQ(pool.memory_bytes(), 8u * cell_size);
    for (std::uint32_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(pool.cell(0, cell).size(), span);
      EXPECT_EQ(pool.cell(0, cell).data(),
                pool.chunk_bytes(0).data() + cell * span);
    }
    EXPECT_EQ(pool.cell(0, 3).data() + span, pool.cell(1, 0).data());
  }
}

TEST(RingBufferPool, StateMachineRoundTrip) {
  RingBufferPool pool{1, 3, 8, 2};
  const auto id = pool.acquire_for_attach();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(pool.state(*id), ChunkState::kAttached);
  EXPECT_EQ(pool.free_chunks(), 1u);

  const auto meta = pool.mark_captured(*id, 0, 8);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(pool.state(*id), ChunkState::kCaptured);
  EXPECT_EQ(meta->nic_id, 1u);
  EXPECT_EQ(meta->ring_id, 3u);
  EXPECT_EQ(meta->pkt_count, 8u);

  EXPECT_TRUE(pool.recycle(*meta).is_ok());
  EXPECT_EQ(pool.state(*id), ChunkState::kFree);
  EXPECT_EQ(pool.free_chunks(), 2u);
}

TEST(RingBufferPool, ExhaustionReported) {
  RingBufferPool pool{1, 0, 8, 2};
  EXPECT_TRUE(pool.acquire_for_attach().has_value());
  EXPECT_TRUE(pool.acquire_for_attach().has_value());
  EXPECT_EQ(pool.acquire_for_attach().code(), StatusCode::kExhausted);
  EXPECT_EQ(pool.capture_free_chunk(1).code(), StatusCode::kExhausted);
}

TEST(RingBufferPool, CaptureFreeChunkSkipsAttach) {
  RingBufferPool pool{1, 0, 8, 2};
  const auto meta = pool.capture_free_chunk(5);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(pool.state(meta->chunk_id), ChunkState::kCaptured);
  EXPECT_EQ(meta->pkt_count, 5u);
  EXPECT_FALSE(pool.capture_free_chunk(9).has_value());  // > M
}

TEST(RingBufferPool, RecycleValidatesEverything) {
  RingBufferPool pool{1, 2, 8, 4};
  const auto id = pool.acquire_for_attach();
  const auto meta = pool.mark_captured(*id, 0, 8);
  ASSERT_TRUE(meta.has_value());

  ChunkMeta foreign_nic = *meta;
  foreign_nic.nic_id = 9;
  EXPECT_EQ(pool.recycle(foreign_nic).code(), StatusCode::kPermissionDenied);

  ChunkMeta foreign_ring = *meta;
  foreign_ring.ring_id = 5;
  EXPECT_EQ(pool.recycle(foreign_ring).code(), StatusCode::kPermissionDenied);

  ChunkMeta bad_chunk = *meta;
  bad_chunk.chunk_id = 100;
  EXPECT_EQ(pool.recycle(bad_chunk).code(), StatusCode::kInvalidArgument);

  ChunkMeta bad_range = *meta;
  bad_range.pkt_count = 99;
  EXPECT_EQ(pool.recycle(bad_range).code(), StatusCode::kInvalidArgument);

  // Recycling a chunk that is not captured (free/attached) is rejected.
  ChunkMeta not_captured = *meta;
  not_captured.chunk_id = (*id + 1) % 4;
  EXPECT_EQ(pool.recycle(not_captured).code(), StatusCode::kInvalidArgument);

  // The valid one succeeds exactly once (no double recycle).
  EXPECT_TRUE(pool.recycle(*meta).is_ok());
  EXPECT_EQ(pool.recycle(*meta).code(), StatusCode::kInvalidArgument);
}

TEST(RingBufferPool, RecycleFuzzNeverCorrupts) {
  // Property: feeding 10,000 random metadata blobs into recycle() never
  // frees a chunk that is not captured, never throws, and never changes
  // the number of chunks the pool accounts for.
  RingBufferPool pool{2, 1, 16, 8};
  // Put the pool into a mixed state.
  const auto a = pool.acquire_for_attach();
  const auto captured_a = pool.mark_captured(*a, 0, 16);
  static_cast<void>(pool.acquire_for_attach());  // stays attached
  const auto rescued = pool.capture_free_chunk(3);
  ASSERT_TRUE(captured_a.has_value());
  ASSERT_TRUE(rescued.has_value());

  Xoshiro256 rng{99};
  std::uint64_t accepted = 0;
  for (int i = 0; i < 10'000; ++i) {
    ChunkMeta meta;
    meta.nic_id = static_cast<std::uint32_t>(rng.next_below(4));
    meta.ring_id = static_cast<std::uint32_t>(rng.next_below(4));
    meta.chunk_id = static_cast<std::uint32_t>(rng.next_below(12));
    meta.first_cell = static_cast<std::uint32_t>(rng.next_below(20));
    meta.pkt_count = static_cast<std::uint32_t>(rng.next_below(20));
    if (pool.recycle(meta).is_ok()) ++accepted;
  }
  // Only the two captured chunks could ever be legally recycled.
  EXPECT_LE(accepted, 2u);
  // Every chunk is still in a coherent state.
  int free_count = 0, attached = 0, captured_count = 0;
  for (std::uint32_t c = 0; c < 8; ++c) {
    switch (pool.state(c)) {
      case ChunkState::kFree: ++free_count; break;
      case ChunkState::kAttached: ++attached; break;
      case ChunkState::kCaptured: ++captured_count; break;
    }
  }
  EXPECT_EQ(free_count + attached + captured_count, 8);
  EXPECT_EQ(attached, 1);  // chunk `a` was captured; one stayed attached
  EXPECT_EQ(pool.free_chunks(), static_cast<std::uint32_t>(free_count));
}

TEST(RingBufferPool, CookieRoundTrip) {
  const auto cookie = RingBufferPool::make_cookie(12345, 678);
  EXPECT_EQ(RingBufferPool::cookie_chunk(cookie), 12345u);
  EXPECT_EQ(RingBufferPool::cookie_cell(cookie), 678u);
}

// --- WirecapQueueDriver ---

class DriverFixture : public ::testing::Test {
 protected:
  DriverFixture() : bus_(scheduler_) {
    nic::NicConfig config;
    config.nic_id = 1;
    config.num_rx_queues = 1;
    config.rx_ring_size = 16;
    nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, bus_, config);
  }

  WirecapDriverConfig driver_config(std::uint32_t m = 4, std::uint32_t r = 8) {
    WirecapDriverConfig config;
    config.cells_per_chunk = m;
    config.chunk_count = r;
    config.partial_chunk_timeout = Nanos::from_millis(1);
    return config;
  }

  void inject(std::uint64_t count, Nanos start = Nanos::zero()) {
    trace::ConstantRateConfig config;
    config.packet_count = count;
    config.flows = {test_flow()};
    config.start = start;
    trace::ConstantRateSource source{config};
    while (auto packet = source.next()) nic_->receive(*packet);
    scheduler_.run();
  }

  sim::Scheduler scheduler_;
  sim::IoBus bus_;
  std::unique_ptr<nic::MultiQueueNic> nic_;
};

TEST_F(DriverFixture, OpenAttachesWholeRing) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  // Ring of 16, segments of 4: four chunks attached, four left free.
  EXPECT_EQ(nic_->rx_ring(0).ready_count(), 16u);
  EXPECT_EQ(driver.pool().free_chunks(), 4u);
}

TEST_F(DriverFixture, ValidatesGeometry) {
  // M > ring size.
  EXPECT_THROW((WirecapQueueDriver{*nic_, 0, driver_config(32, 8)}),
               std::invalid_argument);
  // R <= ring/M provides no buffering beyond the ring.
  EXPECT_THROW((WirecapQueueDriver{*nic_, 0, driver_config(4, 4)}),
               std::invalid_argument);
}

TEST_F(DriverFixture, CapturesFullChunksZeroCopy) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  inject(9);  // two full chunks of 4, one packet left over

  std::vector<ChunkMeta> out;
  const std::uint32_t copied = driver.capture(scheduler_.now(), 16, out);
  EXPECT_EQ(copied, 0u);  // zero-copy path
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].pkt_count, 4u);
  EXPECT_EQ(out[1].pkt_count, 4u);
  EXPECT_EQ(out[0].first_cell, 0u);
  EXPECT_EQ(driver.stats().chunks_captured, 2u);
  EXPECT_EQ(driver.stats().packets_captured, 8u);

  // The captured cells contain the real packets with per-cell info.
  const auto& pool = driver.pool();
  for (std::uint32_t i = 0; i < 4; ++i) {
    const CellInfo& info = pool.cell_info(out[0].chunk_id, i);
    EXPECT_EQ(info.seq, i);
    EXPECT_EQ(info.wire_length, 64u);
    const auto flow =
        net::parse_flow(pool.cell(out[0].chunk_id, i).first(info.length));
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(*flow, test_flow());
  }
}

TEST_F(DriverFixture, ReplenishesAfterCaptureAndRecycle) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  inject(4);
  std::vector<ChunkMeta> out;
  driver.capture(scheduler_.now(), 16, out);
  ASSERT_EQ(out.size(), 1u);
  // Consuming one segment freed 4 descriptors; a free chunk was attached
  // in its place.
  EXPECT_EQ(nic_->rx_ring(0).ready_count(), 16u);
  EXPECT_EQ(driver.pool().free_chunks(), 3u);

  EXPECT_TRUE(driver.recycle(out[0]).is_ok());
  EXPECT_EQ(driver.pool().free_chunks(), 4u);
  EXPECT_EQ(driver.stats().chunks_recycled, 1u);
}

TEST_F(DriverFixture, PartialChunkRescuedAfterTimeout) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  inject(2);  // half a chunk

  // Before the timeout: nothing captured.
  std::vector<ChunkMeta> out;
  EXPECT_EQ(driver.capture(scheduler_.now(), 16, out), 0u);
  EXPECT_TRUE(out.empty());

  // After the timeout: the two packets are copied into a free chunk.
  scheduler_.run_until(scheduler_.now() + Nanos::from_millis(2));
  const std::uint32_t copied = driver.capture(scheduler_.now(), 16, out);
  EXPECT_EQ(copied, 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pkt_count, 2u);
  EXPECT_EQ(out[0].first_cell, 0u);
  EXPECT_EQ(driver.stats().partial_rescues, 1u);
  EXPECT_EQ(driver.stats().packets_copied, 2u);

  // The rescued copy carries the packet bytes.
  const auto& pool = driver.pool();
  const CellInfo& info = pool.cell_info(out[0].chunk_id, 0);
  EXPECT_EQ(info.seq, 0u);
  const auto flow =
      net::parse_flow(pool.cell(out[0].chunk_id, 0).first(info.length));
  ASSERT_TRUE(flow.has_value());
  EXPECT_EQ(*flow, test_flow());

  // The donor segment continues filling; once complete it is captured
  // with first_cell == 2.
  inject(2, scheduler_.now());
  std::vector<ChunkMeta> rest;
  EXPECT_EQ(driver.capture(scheduler_.now(), 16, rest), 0u);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].first_cell, 2u);
  EXPECT_EQ(rest[0].pkt_count, 2u);
}

TEST_F(DriverFixture, RescueCopiesOnlyCapturedBytes) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  // Mark every free chunk's cells so a copy past the frame shows.
  constexpr std::byte kSentinel{0xA5};
  RingBufferPool& pool = driver.pool();
  for (std::uint32_t chunk = 0; chunk < pool.chunk_count(); ++chunk) {
    if (pool.state(chunk) != ChunkState::kFree) continue;
    for (std::uint32_t cell = 0; cell < pool.cells_per_chunk(); ++cell) {
      std::ranges::fill(pool.cell(chunk, cell), kSentinel);
    }
  }

  // Three frames shorter than the snap length, then the rescue timeout.
  std::vector<net::WirePacket> frames;
  for (std::uint32_t i = 0; i < 3; ++i) {
    frames.push_back(net::WirePacket::make(Nanos{1'000 * i}, test_flow(),
                                           60 - 4 * i, i));
    ASSERT_LT(frames.back().snap_len(), net::WirePacket::kSnapBytes);
    nic_->receive(frames.back());
  }
  scheduler_.run();
  scheduler_.run_until(scheduler_.now() + Nanos::from_millis(2));

  std::vector<ChunkMeta> out;
  ASSERT_EQ(driver.capture(scheduler_.now(), 16, out), 3u);
  ASSERT_EQ(out.size(), 1u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const CellInfo& info = pool.cell_info(out[0].chunk_id, i);
    const auto cell = pool.cell(out[0].chunk_id, i);
    ASSERT_EQ(info.length, frames[i].snap_len());
    EXPECT_TRUE(std::ranges::equal(cell.first(info.length), frames[i].bytes()))
        << "rescued frame " << i << " differs from the DMA'd bytes";
    EXPECT_TRUE(std::ranges::all_of(
        cell.subspan(info.length),
        [](std::byte b) { return b == kSentinel; }))
        << "rescue wrote past frame " << i << "'s " << info.length << " bytes";
  }
}

TEST_F(DriverFixture, PoolExhaustionCausesNicDrops) {
  // Rebuild the NIC with a tiny internal FIFO so pool/ring exhaustion is
  // visible as drops rather than FIFO parking.
  nic::NicConfig config;
  config.nic_id = 1;
  config.num_rx_queues = 1;
  config.rx_ring_size = 16;
  config.rx_fifo_bytes = 4 * 128;  // four 64-byte frames
  nic_ = std::make_unique<nic::MultiQueueNic>(scheduler_, bus_, config);

  WirecapQueueDriver driver{*nic_, 0, driver_config(4, 8)};
  driver.open();
  // Without a capture thread moving chunks out, buffering is limited to
  // the attached descriptors (16) plus the FIFO (4).
  inject(200);
  EXPECT_EQ(nic_->rx_stats(0).received, 16u);
  EXPECT_EQ(nic_->rx_stats(0).dropped, 200u - 16u - 4u);

  // Once capture runs, freed segments are replenished from the pool and
  // the parked FIFO frames flow in.
  std::vector<ChunkMeta> out;
  driver.capture(scheduler_.now(), 16, out);
  scheduler_.run();
  // 4 full segments, plus the 4 FIFO-parked frames that flowed into the
  // first replenished segment and completed it within the same capture.
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(nic_->rx_stats(0).received, 20u);
}

TEST_F(DriverFixture, TransmitSendsPoolCellZeroCopy) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  inject(4);
  std::vector<ChunkMeta> out;
  driver.capture(scheduler_.now(), 16, out);
  ASSERT_EQ(out.size(), 1u);

  std::uint64_t egress_seq = 1234;
  nic_->set_egress([&](const net::WirePacket& p) { egress_seq = p.seq(); });
  bool completed = false;
  EXPECT_TRUE(driver.transmit(0, out[0], 1, [&] { completed = true; }));
  scheduler_.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(egress_seq, 1u);
  EXPECT_EQ(nic_->total_transmitted(), 1u);
}

TEST_F(DriverFixture, RecycleRejectsForeignMetadata) {
  WirecapQueueDriver driver{*nic_, 0, driver_config()};
  driver.open();
  ChunkMeta bogus;
  bogus.nic_id = 1;
  bogus.ring_id = 0;
  bogus.chunk_id = 2;  // attached, not captured
  bogus.pkt_count = 4;
  EXPECT_FALSE(driver.recycle(bogus).is_ok());
  EXPECT_EQ(driver.stats().recycle_rejects, 1u);
}

}  // namespace
}  // namespace wirecap::driver
