// Tests for the capture-to-disk spool (src/store): segment index
// round-trips, segment rotation, the k-way-merging StoreReader (stable
// order on duplicate timestamps, index-driven segment skipping),
// backpressure policies, the Experiment spool integration, and the
// round-trip conservation property under the fault soak.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/harness.hpp"
#include "common/rng.hpp"
#include "core/wirecap_engine.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "store/reader.hpp"
#include "store/segment_index.hpp"
#include "store/spool.hpp"
#include "testing/faults.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

namespace wirecap::store {
namespace {

const net::FlowKey kFlowA{net::Ipv4Addr{131, 225, 2, 9},
                          net::Ipv4Addr{10, 0, 0, 1}, 4000, 53,
                          net::IpProto::kUdp};
const net::FlowKey kFlowB{net::Ipv4Addr{192, 168, 7, 7},
                          net::Ipv4Addr{10, 0, 0, 2}, 5000, 80,
                          net::IpProto::kTcp};

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wirecap_store_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST(SegmentIndexCodec, RoundTrip) {
  SegmentIndex index;
  index.shard_id = 3;
  index.segment_seq = 17;
  index.packet_count = 1234;
  index.byte_count = 99'000;
  index.min_timestamp = Nanos{1'000};
  index.max_timestamp = Nanos{2'000'000};
  index.unindexed_packets = 7;
  index.flows.push_back(SegmentFlowEntry{kFlowA, 900});
  index.flows.push_back(SegmentFlowEntry{kFlowB, 327});

  const auto encoded = encode_segment_index(index);
  const auto decoded = decode_segment_index(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, 3u);
  EXPECT_EQ(decoded->segment_seq, 17u);
  EXPECT_EQ(decoded->packet_count, 1234u);
  EXPECT_EQ(decoded->byte_count, 99'000u);
  EXPECT_EQ(decoded->min_timestamp.count(), 1'000);
  EXPECT_EQ(decoded->max_timestamp.count(), 2'000'000);
  EXPECT_EQ(decoded->unindexed_packets, 7u);
  ASSERT_EQ(decoded->flows.size(), 2u);
  EXPECT_EQ(decoded->flows[0].flow, kFlowA);
  EXPECT_EQ(decoded->flows[0].packets, 900u);
  EXPECT_EQ(decoded->flows[1].flow, kFlowB);

  // Truncated payloads must decode to nullopt, not crash.
  for (std::size_t cut = 0; cut < encoded.size(); cut += 7) {
    std::vector<std::byte> partial(encoded.begin(),
                                   encoded.begin() +
                                       static_cast<std::ptrdiff_t>(cut));
    (void)decode_segment_index(partial);
  }

  // Bloom round-trip (version 2): inserted flows stay queryable.
  index.flow_bloom = FlowBloom::make(1024, 4);
  index.flow_bloom.insert(kFlowA);
  const auto encoded_bloom = encode_segment_index(index);
  const auto decoded_bloom = decode_segment_index(encoded_bloom);
  ASSERT_TRUE(decoded_bloom.has_value());
  EXPECT_EQ(decoded_bloom->flow_bloom, index.flow_bloom);
  EXPECT_TRUE(decoded_bloom->flow_bloom.may_contain(kFlowA));
  for (std::size_t cut = encoded.size(); cut < encoded_bloom.size(); ++cut) {
    std::vector<std::byte> partial(
        encoded_bloom.begin(),
        encoded_bloom.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_segment_index(partial).has_value());
  }

  // A version-1 payload (no bloom section) still decodes.  `encoded`
  // carried an empty bloom, so stripping its 8-byte header and patching
  // the version word reproduces the v1 layout byte-for-byte.
  std::vector<std::byte> v1(encoded.begin(), encoded.end() - 8);
  v1[4] = std::byte{1};
  const auto decoded_v1 = decode_segment_index(v1);
  ASSERT_TRUE(decoded_v1.has_value());
  EXPECT_TRUE(decoded_v1->flow_bloom.empty());
  EXPECT_EQ(decoded_v1->packet_count, 1234u);
  // ...and without the bloom, a nonzero unindexed count keeps flow
  // queries conservative.
  EXPECT_TRUE(decoded_v1->may_contain_flow(kFlowB));
}

TEST(SegmentNames, RoundTrip) {
  const std::string name = SegmentWriter::segment_name(2, 17);
  EXPECT_EQ(name, "shard002-seg000017.pcapng");
  const auto parsed = SegmentWriter::parse_segment_name(name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 2u);
  EXPECT_EQ(parsed->second, 17u);
  EXPECT_FALSE(SegmentWriter::parse_segment_name("other.pcapng").has_value());
  EXPECT_FALSE(SegmentWriter::parse_segment_name("shard002-seg0.txt")
                   .has_value());
}

TEST_F(StoreTest, SegmentWriterRotatesAndIndexes) {
  SegmentWriter::Options options;
  options.segment_max_bytes = 2'000;  // a handful of packets per segment
  options.segment_max_span = Nanos::from_millis(100.0);
  SegmentWriter writer{dir_, 0, options};
  for (int i = 0; i < 40; ++i) {
    const auto pkt = net::WirePacket::make(Nanos{1'000LL * (i + 1)}, kFlowA,
                                           128, static_cast<std::uint64_t>(i));
    writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(),
                 static_cast<std::uint64_t>(i));
  }
  writer.finish();
  EXPECT_GE(writer.segments_opened(), 3u);
  EXPECT_EQ(writer.packets_written(), 40u);

  StoreReader reader{dir_};
  ASSERT_EQ(reader.segments().size(), writer.segments_opened());
  std::uint64_t total = 0;
  Nanos min = Nanos::max();
  Nanos max{0};
  for (const SegmentIndex& index : reader.segments()) {
    total += index.packet_count;
    EXPECT_GT(index.packet_count, 0u);
    EXPECT_LE(index.min_timestamp, index.max_timestamp);
    if (index.min_timestamp < min) min = index.min_timestamp;
    if (index.max_timestamp > max) max = index.max_timestamp;
    // One flow, fully indexed.
    ASSERT_EQ(index.flows.size(), 1u);
    EXPECT_EQ(index.flows[0].flow, kFlowA);
    EXPECT_EQ(index.unindexed_packets, 0u);
  }
  EXPECT_EQ(total, 40u);
  EXPECT_EQ(min.count(), 1'000);
  EXPECT_EQ(max.count(), 40'000);

  const auto records = reader.read_all();
  ASSERT_EQ(records.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].timestamp.count(),
              1'000LL * (i + 1));
    ASSERT_TRUE(records[static_cast<std::size_t>(i)].packet_id.has_value());
    EXPECT_EQ(*records[static_cast<std::size_t>(i)].packet_id,
              static_cast<std::uint64_t>(i));
  }
}

// Satellite: duplicate timestamps across shards must merge in a stable,
// deterministic order (shard id breaks the tie) with every packet
// appearing exactly once.
TEST_F(StoreTest, MergeBreaksDuplicateTimestampTiesByShard) {
  constexpr int kShards = 3;
  constexpr int kPackets = 30;  // per shard; every timestamp collides
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    SegmentWriter::Options options;
    options.segment_max_bytes = 1'500;  // several segments per shard
    SegmentWriter writer{dir_, shard, options};
    for (int i = 0; i < kPackets; ++i) {
      const std::uint64_t id =
          static_cast<std::uint64_t>(shard) * 1'000 +
          static_cast<std::uint64_t>(i);
      const auto pkt = net::WirePacket::make(Nanos{100LL * i}, kFlowA, 80, id);
      writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), id);
    }
    writer.finish();
  }

  StoreReader reader{dir_};
  std::unordered_set<std::uint64_t> seen;
  Nanos last{-1};
  std::uint32_t last_shard = 0;
  std::uint64_t records = 0;
  reader.read_merged({}, [&](const net::PcapngRecord& record,
                             std::uint32_t shard) {
    ++records;
    EXPECT_GE(record.timestamp, last);
    if (record.timestamp == last) {
      // Ties come out ordered by shard id (stable merge).
      EXPECT_GE(shard, last_shard);
    }
    last = record.timestamp;
    last_shard = shard;
    ASSERT_TRUE(record.packet_id.has_value());
    EXPECT_TRUE(seen.insert(*record.packet_id).second)
        << "duplicate packet id " << *record.packet_id;
  });
  EXPECT_EQ(records, static_cast<std::uint64_t>(kShards) * kPackets);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kShards) * kPackets);
}

TEST_F(StoreTest, IndexSkipsSegmentsByTimeAndFlow) {
  // Two widely separated segments with disjoint flows: span rotation
  // splits them, so the index can prune either dimension.
  SegmentWriter::Options options;
  options.segment_max_span = Nanos::from_millis(1.0);
  SegmentWriter writer{dir_, 0, options};
  for (int i = 0; i < 10; ++i) {
    const auto pkt = net::WirePacket::make(Nanos{1'000LL * i}, kFlowA, 80,
                                           static_cast<std::uint64_t>(i));
    writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(),
                 static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 10; ++i) {
    const auto pkt = net::WirePacket::make(
        Nanos::from_millis(50.0) + Nanos{1'000LL * i}, kFlowB, 80,
        static_cast<std::uint64_t>(100 + i));
    writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(),
                 static_cast<std::uint64_t>(100 + i));
  }
  writer.finish();

  StoreReader reader{dir_};
  ASSERT_GE(reader.segments().size(), 2u);

  StoreQuery late;
  late.start = Nanos::from_millis(40.0);
  std::uint64_t matched = 0;
  const auto late_stats =
      reader.read_merged(late, [&](const net::PcapngRecord& record,
                                   std::uint32_t) {
        ++matched;
        EXPECT_GE(record.timestamp, *late.start);
      });
  EXPECT_EQ(matched, 10u);
  EXPECT_GE(late_stats.segments_skipped_time, 1u);

  StoreQuery by_flow;
  by_flow.flow = kFlowA;
  matched = 0;
  const auto flow_stats =
      reader.read_merged(by_flow, [&](const net::PcapngRecord& record,
                                      std::uint32_t) {
        ++matched;
        const auto parsed = net::parse_flow(record.data);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kFlowA);
      });
  EXPECT_EQ(matched, 10u);
  EXPECT_GE(flow_stats.segments_skipped_flow, 1u);

  StoreQuery by_filter;
  by_filter.filter = "tcp";
  matched = 0;
  reader.read_merged(by_filter,
                     [&](const net::PcapngRecord&, std::uint32_t) {
                       ++matched;
                     });
  EXPECT_EQ(matched, 10u);  // the kFlowB half
}

// --- backpressure policies against a stalled simulated disk ---

/// Fabricates a chunk of `count` packets backed by `storage` (which must
/// outlive the chunk's journey through the spool).
engines::ChunkCaptureView make_chunk(
    std::vector<std::unique_ptr<std::vector<std::byte>>>& storage,
    std::uint32_t ring, std::uint64_t first_seq, std::size_t count,
    Nanos first_ts) {
  engines::ChunkCaptureView chunk;
  chunk.source_ring = ring;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seq = first_seq + i;
    const auto pkt =
        net::WirePacket::make(first_ts + Nanos{static_cast<std::int64_t>(i)},
                              kFlowA, 80, seq);
    storage.push_back(std::make_unique<std::vector<std::byte>>(
        pkt.bytes().begin(), pkt.bytes().end()));
    engines::CaptureView view;
    view.bytes = std::span<std::byte>(*storage.back());
    view.wire_len = pkt.wire_len();
    view.timestamp = pkt.timestamp();
    view.seq = seq;
    chunk.packets.push_back(view);
  }
  return chunk;
}

struct PolicyOutcome {
  ShardStats stats;
  std::uint64_t releases = 0;
  std::uint64_t on_disk = 0;
};

PolicyOutcome run_policy(const std::filesystem::path& dir,
                         BackpressurePolicy policy) {
  sim::Scheduler scheduler;
  sim::CostModel costs;
  SpoolConfig config;
  config.dir = dir;
  config.num_shards = 1;
  config.policy = policy;
  config.queue_capacity_chunks = 2;
  config.record_lost_seqs = true;
  Spool spool{scheduler, costs, config};
  SpoolShard& shard = spool.shard(0);
  // Stall the disk so offers pile into the bounded queue.
  shard.set_disk_full(Nanos::from_micros(500.0));

  std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
  PolicyOutcome outcome;
  for (int c = 0; c < 5; ++c) {
    if (policy == BackpressurePolicy::kBlock && !shard.accepting()) break;
    shard.offer(make_chunk(storage, 0, static_cast<std::uint64_t>(c) * 10, 4,
                           Nanos{1'000LL * (c + 1)}),
                [&outcome](const engines::ChunkCaptureView&) {
                  ++outcome.releases;
                });
  }
  scheduler.run_until(Nanos::from_millis(10.0));
  EXPECT_TRUE(spool.drained());
  spool.close();
  outcome.stats = shard.stats();

  StoreReader reader{dir};
  outcome.on_disk = reader.read_all().size();
  return outcome;
}

TEST_F(StoreTest, BackpressurePolicies) {
  {
    const auto block = run_policy(dir_ / "block", BackpressurePolicy::kBlock);
    // The producer gated on accepting(): nothing dropped, no overruns,
    // and the two accepted chunks reached the disk after the stall.
    EXPECT_EQ(block.stats.block_overruns, 0u);
    EXPECT_EQ(block.stats.chunks_dropped_newest, 0u);
    EXPECT_EQ(block.stats.chunks_dropped_oldest, 0u);
    EXPECT_EQ(block.releases, 2u);
    EXPECT_EQ(block.on_disk, 8u);
    EXPECT_GE(block.stats.full_stalls, 1u);
  }
  {
    const auto newest =
        run_policy(dir_ / "newest", BackpressurePolicy::kDropNewest);
    // Queue bound 2: chunks 3-5 are discarded on arrival.
    EXPECT_EQ(newest.stats.chunks_dropped_newest, 3u);
    EXPECT_EQ(newest.stats.packets_dropped_newest, 12u);
    EXPECT_EQ(newest.releases, 5u);  // every chunk released exactly once
    EXPECT_EQ(newest.on_disk, 8u);
  }
  {
    const auto oldest =
        run_policy(dir_ / "oldest", BackpressurePolicy::kDropOldest);
    // The queue keeps the freshest two; three old chunks fall out.
    EXPECT_EQ(oldest.stats.chunks_dropped_oldest, 3u);
    EXPECT_EQ(oldest.releases, 5u);
    EXPECT_EQ(oldest.on_disk, 8u);
  }
}

// --- chunk lifecycle regressions: close / evict_ring vs outstanding
// writes, zero-capacity config ---

// Regression: close() used to abandon the in-flight chunk — its bytes
// were on disk but the release never fired, leaking the chunk (and its
// ring cells) forever.  close() must settle outstanding writes, and the
// stale completion event must then find nothing to double-release.
TEST_F(StoreTest, CloseSettlesInFlightWrites) {
  sim::Scheduler scheduler;
  sim::CostModel costs;
  SpoolConfig config;
  config.dir = dir_;
  Spool spool{scheduler, costs, config};

  std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
  std::uint64_t releases = 0;
  spool.shard(0).offer(make_chunk(storage, 0, 0, 4, Nanos{1'000}),
                       [&releases](const engines::ChunkCaptureView&) {
                         ++releases;
                       });
  // The write was submitted synchronously (bytes are on disk), but its
  // completion event is still pending on the virtual clock.
  EXPECT_EQ(releases, 0u);
  EXPECT_EQ(spool.shard(0).backlog(), 1u);

  spool.close();
  EXPECT_EQ(releases, 1u) << "close() leaked the in-flight chunk";
  EXPECT_EQ(spool.shard(0).stats().in_flight_settled, 1u);
  EXPECT_EQ(spool.shard(0).stats().chunks_evicted, 0u)
      << "a settled write is not a loss: the bytes are on disk";
  EXPECT_TRUE(spool.drained());

  // The orphaned completion event must no-op, not release again.
  scheduler.run_until(Nanos::from_millis(10.0));
  EXPECT_EQ(releases, 1u);

  StoreReader reader{dir_};
  EXPECT_EQ(reader.read_all().size(), 4u);
}

// Regression: queue_capacity_chunks == 0 under kDropOldest popped an
// empty deque on the first offer.  The config is now rejected up front
// for every policy (a spool that can hold nothing is a misconfiguration).
TEST_F(StoreTest, ZeroQueueCapacityRejected) {
  sim::Scheduler scheduler;
  sim::CostModel costs;
  for (const auto policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kDropNewest,
        BackpressurePolicy::kDropOldest}) {
    SpoolConfig config;
    config.dir = dir_;
    config.policy = policy;
    config.queue_capacity_chunks = 0;
    EXPECT_THROW((Spool{scheduler, costs, config}), std::invalid_argument)
        << to_string(policy);
  }
}

// Regression: evict_ring() only filtered the queue; a write still
// outstanding on the simulated disk kept its deferred completion, which
// later released a chunk into the (by then) torn-down pool.  The shard
// must settle in-flight writes from the evicted ring synchronously and
// exactly once.
TEST_F(StoreTest, EvictRingSettlesInFlightWrites) {
  sim::Scheduler scheduler;
  sim::CostModel costs;
  costs.disk_queue_depth = 4;
  SpoolConfig config;
  config.dir = dir_;
  Spool spool{scheduler, costs, config};
  SpoolShard& shard = spool.shard(0);
  // Stretch transfers so every write stays outstanding for a long time.
  shard.set_slow_disk(1'000.0, Nanos::from_seconds(1.0));

  std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
  bool ring7_pool_alive = true;
  std::uint64_t ring7_releases = 0, ring3_releases = 0, late_releases = 0;
  for (int c = 0; c < 4; ++c) {
    const std::uint32_t ring = (c % 2 == 0) ? 7u : 3u;
    shard.offer(make_chunk(storage, ring, static_cast<std::uint64_t>(c) * 10,
                           4, Nanos{1'000LL * (c + 1)}),
                [&, ring](const engines::ChunkCaptureView&) {
                  if (ring == 7) {
                    ++ring7_releases;
                    if (!ring7_pool_alive) ++late_releases;
                  } else {
                    ++ring3_releases;
                  }
                });
  }
  // Depth 4: all four writes went straight to the device.
  EXPECT_EQ(shard.stats().in_flight_high_water, 4u);
  EXPECT_EQ(shard.backlog(), 4u);
  EXPECT_EQ(ring7_releases, 0u);

  shard.evict_ring(7);
  EXPECT_EQ(ring7_releases, 2u)
      << "in-flight writes from the evicted ring were not settled";
  EXPECT_EQ(shard.stats().in_flight_settled, 2u);
  ring7_pool_alive = false;  // ring 7's pool is torn down from here on

  scheduler.run_until(Nanos::from_seconds(2.0));
  EXPECT_EQ(late_releases, 0u)
      << "a deferred completion released into the torn-down pool";
  EXPECT_EQ(ring7_releases, 2u);
  EXPECT_EQ(ring3_releases, 2u);
  EXPECT_TRUE(spool.drained());
  spool.close();
}

// The multi-outstanding drain is the point of the disk queue: identical
// work must finish strictly sooner at depth 4 than at depth 1, because
// the fixed per-op completion latency overlaps across outstanding
// writes while the device serializes only the transfers.
TEST_F(StoreTest, DeepDiskQueueOverlapsOpLatency) {
  const auto drain_finish = [](const std::filesystem::path& dir,
                               unsigned depth) {
    sim::Scheduler scheduler;
    sim::CostModel costs;
    costs.disk_queue_depth = depth;
    SpoolConfig config;
    config.dir = dir;
    Spool spool{scheduler, costs, config};
    std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
    std::uint64_t releases = 0;
    Nanos last_release = Nanos::zero();
    for (int c = 0; c < 8; ++c) {
      spool.shard(0).offer(
          make_chunk(storage, 0, static_cast<std::uint64_t>(c) * 100, 16,
                     Nanos{1'000LL * (c + 1)}),
          [&](const engines::ChunkCaptureView&) {
            ++releases;
            last_release = scheduler.now();
          });
    }
    scheduler.run_until(Nanos::from_millis(50.0));
    EXPECT_EQ(releases, 8u);
    EXPECT_TRUE(spool.drained());
    EXPECT_LE(spool.shard(0).stats().in_flight_high_water, depth);
    spool.close();
    return last_release;
  };
  const Nanos deep = drain_finish(dir_ / "deep", 4);
  const Nanos serial = drain_finish(dir_ / "serial", 1);
  EXPECT_LT(deep, serial);
}

// --- crash-truncated segments and index-driven pruning ---

// A segment cut off mid-EPB (writer crashed mid-write, no footer) must
// still serve its readable prefix, merge cleanly with intact shards,
// and keep duplicate-timestamp ties ordered by shard id.
TEST_F(StoreTest, ReaderServesTruncatedSegmentPrefix) {
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    SegmentWriter writer{dir_, shard, SegmentWriter::Options{}};
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t id = shard * 1'000 + static_cast<std::uint64_t>(i);
      const auto pkt = net::WirePacket::make(Nanos{100LL * i}, kFlowA, 80, id);
      writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), id);
    }
    writer.finish();
  }
  // Shard 2 "crashes": no footer, and the file loses its tail mid-block.
  const auto crashed = dir_ / SegmentWriter::segment_name(2, 0);
  {
    net::PcapngWriter writer{crashed};
    for (int i = 0; i < 10; ++i) {
      const std::uint64_t id = 2'000 + static_cast<std::uint64_t>(i);
      const auto pkt = net::WirePacket::make(Nanos{100LL * i}, kFlowA, 80, id);
      writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), 0, id);
    }
    writer.close();
  }
  std::filesystem::resize_file(crashed,
                               std::filesystem::file_size(crashed) - 8);

  StoreReader reader{dir_};
  EXPECT_EQ(reader.truncated_segments(), 1u);
  ASSERT_EQ(reader.segments().size(), 3u);
  EXPECT_EQ(reader.segments()[2].packet_count, 9u)
      << "the readable prefix is 9 whole records";

  std::unordered_set<std::uint64_t> seen;
  Nanos last{-1};
  std::uint32_t last_shard = 0;
  std::uint64_t records = 0;
  reader.read_merged({}, [&](const net::PcapngRecord& record,
                             std::uint32_t shard) {
    ++records;
    EXPECT_GE(record.timestamp, last);
    if (record.timestamp == last) {
      EXPECT_GE(shard, last_shard);
    }
    last = record.timestamp;
    last_shard = shard;
    ASSERT_TRUE(record.packet_id.has_value());
    EXPECT_TRUE(seen.insert(*record.packet_id).second)
        << "duplicate packet id " << *record.packet_id;
  });
  EXPECT_EQ(records, 29u);  // 10 + 10 + the 9-record prefix
}

net::FlowKey flow_n(std::uint8_t n) {
  return net::FlowKey{net::Ipv4Addr{10, 1, 0, n}, net::Ipv4Addr{10, 2, 0, 1},
                      static_cast<std::uint16_t>(1'000 + n), 53,
                      net::IpProto::kUdp};
}

// Past flow_index_cap the exact tally goes blind (unindexed_packets >
// 0), which used to force a scan of every such segment.  The footer
// bloom keeps pruning exact-flow queries — and BPF filters that pin a
// full 5-tuple — beyond the cap.
TEST_F(StoreTest, BloomSkipsSegmentsBeyondFlowIndexCap) {
  SegmentWriter::Options options;
  options.flow_index_cap = 4;
  options.segment_max_span = Nanos::from_millis(1.0);
  SegmentWriter writer{dir_, 0, options};
  std::uint64_t id = 0;
  // Segment 1: flows 0..19 — cardinality far past the cap.
  for (int i = 0; i < 20; ++i) {
    const auto pkt = net::WirePacket::make(
        Nanos{1'000LL * i}, flow_n(static_cast<std::uint8_t>(i)), 80, id);
    writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), id);
    ++id;
  }
  // Far-future timestamps trip span rotation; segment 2: flows 100..119.
  for (int i = 0; i < 20; ++i) {
    const auto pkt = net::WirePacket::make(
        Nanos::from_millis(50.0) + Nanos{1'000LL * i},
        flow_n(static_cast<std::uint8_t>(100 + i)), 80, id);
    writer.write(pkt.timestamp(), pkt.bytes(), pkt.wire_len(), id);
    ++id;
  }
  writer.finish();

  StoreReader reader{dir_};
  ASSERT_EQ(reader.segments().size(), 2u);
  for (const SegmentIndex& index : reader.segments()) {
    EXPECT_GT(index.unindexed_packets, 0u) << "cap never engaged";
    EXPECT_FALSE(index.flow_bloom.empty());
  }

  // A flow only in segment 2 — and past its tally cap — skips segment 1.
  StoreQuery q;
  q.flow = flow_n(119);
  std::uint64_t matched = 0;
  auto stats = reader.read_merged(
      q, [&](const net::PcapngRecord&, std::uint32_t) { ++matched; });
  EXPECT_EQ(matched, 1u);
  EXPECT_EQ(stats.segments_skipped_flow, 1u)
      << "bloom must prune where the capped tally cannot";

  // An absent flow touches no segment at all.
  q.flow = flow_n(250);
  matched = 0;
  stats = reader.read_merged(
      q, [&](const net::PcapngRecord&, std::uint32_t) { ++matched; });
  EXPECT_EQ(matched, 0u);
  EXPECT_EQ(stats.segments_skipped_flow, 2u);
  EXPECT_EQ(stats.packets_scanned, 0u);

  // A filter pinning the full 5-tuple prunes like an exact flow query.
  StoreQuery pinned;
  pinned.filter =
      "src host 10.1.0.105 and dst host 10.2.0.1 and src port 1105 and "
      "dst port 53 and udp";
  matched = 0;
  stats = reader.read_merged(
      pinned, [&](const net::PcapngRecord&, std::uint32_t) { ++matched; });
  EXPECT_EQ(matched, 1u);
  EXPECT_EQ(stats.segments_skipped_filter, 1u);

  // An unpinned filter must not engage segment pruning.
  StoreQuery broad;
  broad.filter = "udp";
  matched = 0;
  stats = reader.read_merged(
      broad, [&](const net::PcapngRecord&, std::uint32_t) { ++matched; });
  EXPECT_EQ(matched, 40u);
  EXPECT_EQ(stats.segments_skipped_filter, 0u);
}

// The vectored gather path and the packet-at-a-time path must produce
// byte-equivalent record streams (timestamps, payloads, packet ids).
TEST_F(StoreTest, VectoredChunkWriteMatchesPerPacketPath) {
  const auto dir_scalar = dir_ / "scalar";
  const auto dir_vector = dir_ / "vector";
  std::filesystem::create_directories(dir_scalar);
  std::filesystem::create_directories(dir_vector);
  SegmentWriter::Options options;
  options.segment_max_bytes = 4'000;  // several rotations either way

  std::vector<std::unique_ptr<std::vector<std::byte>>> storage;
  std::vector<engines::ChunkCaptureView> chunks;
  for (int c = 0; c < 6; ++c) {
    chunks.push_back(make_chunk(storage, 0,
                                static_cast<std::uint64_t>(c) * 100, 8,
                                Nanos{5'000LL * c + 1}));
  }
  {
    SegmentWriter writer{dir_scalar, 0, options};
    for (const auto& chunk : chunks) {
      for (const auto& view : chunk.packets) {
        writer.write(view.timestamp, view.bytes, view.wire_len, view.seq);
      }
    }
    writer.finish();
  }
  {
    SegmentWriter writer{dir_vector, 0, options};
    for (const auto& chunk : chunks) writer.write_chunk(chunk.packets);
    writer.finish();
  }

  StoreReader scalar{dir_scalar};
  StoreReader vectored{dir_vector};
  const auto a = scalar.read_all();
  const auto b = vectored.read_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].orig_len, b[i].orig_len);
    ASSERT_TRUE(a[i].packet_id.has_value());
    ASSERT_TRUE(b[i].packet_id.has_value());
    EXPECT_EQ(*a[i].packet_id, *b[i].packet_id);
    ASSERT_EQ(a[i].data.size(), b[i].data.size());
    EXPECT_TRUE(std::equal(a[i].data.begin(), a[i].data.end(),
                           b[i].data.begin()));
  }
}

// --- Experiment integration: capture → spool → merged read-back ---

TEST_F(StoreTest, ExperimentSpoolRoundTrip) {
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapBasic;
  config.engine.cells_per_chunk = 16;
  config.engine.chunk_count = 64;
  config.ring_size = 256;
  SpoolConfig spool_config;
  spool_config.dir = dir_;
  spool_config.segment_max_bytes = 32u << 10;
  config.spool = spool_config;
  apps::Experiment experiment{config};

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 5'000;
  trace_config.link_bits_per_second = 1e9;
  Xoshiro256 rng{0xBEEF};
  trace_config.flows = {trace::flow_for_queue(rng, 0, 1)};
  trace::ConstantRateSource source{trace_config};
  const auto result = experiment.run(source, Nanos::from_seconds(1.0));

  EXPECT_EQ(result.delivered, 5'000u);
  EXPECT_EQ(result.processed, 5'000u);
  const ShardStats totals = experiment.spool()->total_stats();
  EXPECT_EQ(totals.packets_written, 5'000u);
  EXPECT_EQ(totals.chunks_dropped_newest + totals.chunks_dropped_oldest +
                totals.chunks_evicted,
            0u);

  StoreReader reader{dir_};
  EXPECT_GE(reader.segments().size(), 2u);  // size rotation engaged
  std::unordered_set<std::uint64_t> seen;
  Nanos last{0};
  reader.read_merged({}, [&](const net::PcapngRecord& record, std::uint32_t) {
    EXPECT_GE(record.timestamp, last);
    last = record.timestamp;
    ASSERT_TRUE(record.packet_id.has_value());
    EXPECT_TRUE(seen.insert(*record.packet_id).second);
  });
  EXPECT_EQ(seen.size(), 5'000u);
}

TEST_F(StoreTest, SpoolBacklogFeedsOffloadDecision) {
  // Advanced engine, two queues, one flooded queue whose shard disk is
  // 50x slow: the spool backlog must push its buddy-group fill over T
  // and offload chunks to the idle queue.
  apps::ExperimentConfig config;
  config.engine.kind = apps::EngineKind::kWirecapAdvanced;
  config.engine.cells_per_chunk = 16;
  config.engine.chunk_count = 32;
  config.engine.offload_threshold = 0.25;
  config.num_queues = 2;
  config.ring_size = 256;
  SpoolConfig spool_config;
  spool_config.dir = dir_;
  spool_config.queue_capacity_chunks = 4;
  config.spool = spool_config;
  apps::Experiment experiment{config};

  // All traffic steers to one queue.
  Xoshiro256 rng{0x50FF};
  const auto flows = trace::flows_for_queue(rng, 0, 2, 1);
  auto* engine = dynamic_cast<core::WirecapEngine*>(&experiment.engine());
  ASSERT_NE(engine, nullptr);
  experiment.spool()->shard(0).set_slow_disk(50.0,
                                             Nanos::from_seconds(10.0));

  trace::ConstantRateConfig trace_config;
  trace_config.packet_count = 20'000;
  trace_config.link_bits_per_second = 10e9;
  trace_config.flows = flows;
  trace::ConstantRateSource source{trace_config};
  const auto result = experiment.run(source, Nanos::from_seconds(1.0));
  (void)result;

  EXPECT_GT(engine->queue_stats(0).chunks_offloaded_out, 0u)
      << "spool backlog never engaged the offload feedback";
}

// --- round-trip conservation under the fault soak (CI gate) ---

TEST(StoreSoak, ConservationUnderFaults) {
  testing::FaultHarnessConfig base;
  base.plan.num_queues = 2;
  base.plan.spool_faults = true;
  base.spool = true;
  const auto soak = testing::run_fault_soak(1, 4, base);
  EXPECT_EQ(soak.seeds_run, 4u);
  EXPECT_GT(soak.total_spooled, 0u);
  EXPECT_TRUE(soak.clean()) << (soak.failures.empty()
                                    ? "(no failure message)"
                                    : soak.failures.front());
}

// The evict_ring in-flight bug class, driven from generated fault
// plans: seeds whose schedule combines a slow disk (writes pile up
// outstanding) with a queue reopen (ring close evicts mid-flight) are
// exactly the interaction that used to double-release or leak.
TEST(StoreSoak, SlowDiskPlusRingCloseFaultPlans) {
  testing::FaultPlanConfig plan_config;
  plan_config.num_queues = 2;
  plan_config.spool_faults = true;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 2'000 && seeds.size() < 5; ++seed) {
    plan_config.seed = seed;
    const auto plan = testing::FaultPlan::generate(plan_config);
    bool slow = false, reopen = false;
    for (const auto& event : plan.events()) {
      slow = slow || event.kind == testing::FaultKind::kSlowDisk;
      reopen = reopen || event.kind == testing::FaultKind::kQueueReopen;
    }
    if (slow && reopen) seeds.push_back(seed);
  }
  ASSERT_FALSE(seeds.empty())
      << "no generated plan combines slow-disk with a ring close";
  for (const std::uint64_t seed : seeds) {
    testing::FaultHarnessConfig base;
    base.plan = plan_config;
    base.spool = true;
    const auto soak = testing::run_fault_soak(seed, 1, base);
    EXPECT_TRUE(soak.clean())
        << "seed " << seed << ": "
        << (soak.failures.empty() ? "(no failure message)"
                                  : soak.failures.front());
  }
}

// Acceptance gate: 100 seeds of slow-disk / disk-full / ring-close
// faults against the multi-outstanding drain, chunk conservation
// audited on every one.
TEST(StoreSoak, ConservationHundredSeeds) {
  testing::FaultHarnessConfig base;
  base.plan.num_queues = 2;
  base.plan.spool_faults = true;
  base.spool = true;
  const auto soak = testing::run_fault_soak(1, 100, base);
  EXPECT_EQ(soak.seeds_run, 100u);
  EXPECT_GT(soak.total_spooled, 0u);
  EXPECT_TRUE(soak.clean()) << soak.failures.size() << " seed(s) failed; "
                            << (soak.failures.empty()
                                    ? "(no failure message)"
                                    : soak.failures.front());
}

TEST(StoreSoak, ConservationUnderDropPolicies) {
  // Drop policies lose chunks by design; the conservation law still
  // holds because losses are counted and excluded from the expectation.
  for (const auto policy :
       {BackpressurePolicy::kDropNewest, BackpressurePolicy::kDropOldest}) {
    testing::FaultHarnessConfig base;
    base.plan.num_queues = 2;
    base.plan.spool_faults = true;
    base.spool = true;
    base.spool_policy = policy;
    const auto soak = testing::run_fault_soak(100, 2, base);
    EXPECT_TRUE(soak.clean()) << to_string(policy) << ": "
                              << (soak.failures.empty()
                                      ? "(no failure message)"
                                      : soak.failures.front());
    EXPECT_GT(soak.total_spooled, 0u);
  }
}

}  // namespace
}  // namespace wirecap::store
