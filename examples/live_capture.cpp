// Live capture on real threads — no simulation clock.
//
// The userspace half of WireCAP is ordinary concurrent code, and this
// example runs it as such: a capture thread owns a ring buffer pool,
// fills chunks with real frames from the traffic generator, and hands
// them to an application thread through a work-queue pair (capture
// queue + recycle queue), exactly the §3.2.2 architecture:
//
//   capture thread:  fill chunk -> push metadata -> recycle used chunks
//   app thread:      pop metadata -> BPF over every cell -> push back
//
// Ownership discipline makes the pool safe without locks on the data
// path: pool state transitions happen only on the capture thread; the
// application touches only the cells of chunks it holds metadata for.
// The demo measures real throughput of the zero-copy handoff.
//
// Flags:
//   --spool-dir=DIR   the application thread additionally spools every
//                     delivered packet into rotating indexed pcapng
//                     segments under DIR (store::SegmentWriter performs
//                     real file I/O — no simulation dependency)
//   --read-spool=DIR  skip capture; k-way-merge a spool directory back
//                     into timestamp order and print a summary
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bpf/codegen.hpp"
#include "bpf/predecode.hpp"
#include "common/mpmc_queue.hpp"
#include "driver/chunk_pool.hpp"
#include "engines/packet_view.hpp"
#include "net/headers.hpp"
#include "store/reader.hpp"
#include "store/spool.hpp"
#include "trace/constant_rate.hpp"
#include "trace/flow_gen.hpp"

using namespace wirecap;

namespace {

int read_spool(const std::string& dir) {
  store::StoreReader reader{dir};
  std::uint64_t packets = 0, bytes = 0;
  Nanos first{}, last{};
  reader.read_merged({}, [&](const net::PcapngRecord& record, std::uint32_t) {
    if (packets == 0) first = record.timestamp;
    last = record.timestamp;
    ++packets;
    bytes += record.orig_len;
  });
  std::printf("%s: %zu segment(s), %llu packets (%llu bytes) merged in "
              "timestamp order, spanning %.3f s\n",
              dir.c_str(), reader.segments().size(),
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(bytes),
              packets ? (last - first).seconds() : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spool_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--spool-dir=", 0) == 0) spool_dir = arg.substr(12);
    if (arg.rfind("--read-spool=", 0) == 0) {
      try {
        return read_spool(arg.substr(13));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
      }
    }
  }

  constexpr std::uint32_t kCellsPerChunk = 256;  // M
  constexpr std::uint32_t kChunks = 64;          // R
  // Spooling does real file I/O per packet: keep the demo's disk
  // footprint reasonable.
  const std::uint64_t kPackets = spool_dir.empty() ? 4'000'000 : 200'000;

  std::printf("live capture on real threads: %llu packets through a "
              "%u x %u ring buffer pool\n",
              static_cast<unsigned long long>(kPackets), kChunks,
              kCellsPerChunk);

  driver::RingBufferPool pool{/*nic=*/0, /*ring=*/0, kCellsPerChunk, kChunks};
  MpmcQueue<driver::ChunkMeta> capture_queue{kChunks};
  MpmcQueue<driver::ChunkMeta> recycle_queue{kChunks};

  const auto wall_start = std::chrono::steady_clock::now();

  // --- capture thread: the "kernel + capture thread" side ---
  std::thread capture_thread([&] {
    trace::ConstantRateConfig config;
    config.packet_count = kPackets;
    Xoshiro256 rng{0x11FE};
    config.flows = {trace::flow_for_queue(rng, 0, 1),
                    net::FlowKey{net::Ipv4Addr{131, 225, 2, 40},
                                 net::Ipv4Addr{10, 3, 2, 1}, 888, 53,
                                 net::IpProto::kUdp}};
    trace::ConstantRateSource source{config};

    std::uint64_t filled = 0;
    while (filled < kPackets) {
      // Recycle everything the app returned.
      while (auto meta = recycle_queue.try_pop()) {
        if (!pool.recycle(*meta).is_ok()) {
          std::fprintf(stderr, "recycle failed!\n");
          return;
        }
      }
      auto chunk = pool.capture_free_chunk(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              kCellsPerChunk, kPackets - filled)));
      if (!chunk) {
        // Pool exhausted: the app is behind.  A real driver would let
        // the ring absorb the wait; here we block on the recycle queue.
        if (auto meta = recycle_queue.pop()) {
          static_cast<void>(pool.recycle(*meta));
        }
        continue;
      }
      // "DMA" the next packets into the chunk's cells.
      for (std::uint32_t cell = 0; cell < chunk->pkt_count; ++cell) {
        const auto packet = source.next();
        const auto dst = pool.cell(chunk->chunk_id, cell);
        const auto src = packet->bytes();
        std::copy(src.begin(), src.end(), dst.begin());
        driver::CellInfo& info = pool.cell_info(chunk->chunk_id, cell);
        info.length = packet->snap_len();
        info.wire_length = packet->wire_len();
        info.timestamp_ns = packet->timestamp().count();
        info.seq = packet->seq();
        ++filled;
      }
      capture_queue.push(*chunk);
    }
    capture_queue.close();
  });

  // --- application thread: BPF over every delivered packet, spooling
  // to disk when requested ---
  std::uint64_t delivered = 0, matched = 0, spooled_segments = 0;
  std::thread app_thread([&] {
    const bpf::Predecoded filter{bpf::compile_filter("131.225.2 and udp")};
    std::unique_ptr<store::SegmentWriter> writer;
    std::vector<engines::CaptureView> chunk_views;
    if (!spool_dir.empty()) {
      std::filesystem::create_directories(spool_dir);
      store::SegmentWriter::Options options;
      options.segment_max_bytes = 4u << 20;
      writer = std::make_unique<store::SegmentWriter>(spool_dir, 0, options);
      chunk_views.reserve(kCellsPerChunk);
    }
    while (auto meta = capture_queue.pop()) {
      chunk_views.clear();
      for (std::uint32_t cell = 0; cell < meta->pkt_count; ++cell) {
        const auto bytes = pool.cell(meta->chunk_id, cell);
        const driver::CellInfo& info = pool.cell_info(meta->chunk_id, cell);
        if (filter.matches(bytes.first(info.length), info.wire_length)) {
          ++matched;
        }
        if (writer) {
          engines::CaptureView view;
          view.bytes = bytes.first(info.length);
          view.wire_len = info.wire_length;
          view.timestamp = Nanos{info.timestamp_ns};
          view.seq = info.seq;
          chunk_views.push_back(view);
        }
        ++delivered;
      }
      // One vectored writev commit per chunk: the gather path batches
      // the whole chunk's cells straight from the pool, no copies.
      if (writer && !chunk_views.empty()) writer->write_chunk(chunk_views);
      recycle_queue.push(*meta);
    }
    if (writer) {
      writer->finish();
      spooled_segments = writer->segments_opened();
    }
    recycle_queue.close();
  });

  capture_thread.join();
  app_thread.join();

  const auto wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  std::printf("delivered %llu packets (%llu matched the filter) in %.2f s\n",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(matched), wall);
  std::printf("real-thread throughput: %.2f Mp/s through the work-queue "
              "pair, zero data-path copies beyond the synthetic DMA\n",
              static_cast<double>(delivered) / wall / 1e6);
  if (!spool_dir.empty()) {
    std::printf("spooled %llu packets into %llu indexed pcapng segment(s) "
                "under %s\n",
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(spooled_segments),
                spool_dir.c_str());
    std::printf("read it back with: --read-spool=%s\n", spool_dir.c_str());
  }
  return delivered == kPackets ? 0 : 1;
}
