#include "store/spool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "net/headers.hpp"

namespace wirecap::store {

// --- SegmentWriter ---

SegmentWriter::SegmentWriter(std::filesystem::path dir, std::uint32_t shard_id,
                             Options options)
    : dir_(std::move(dir)), shard_id_(shard_id), options_(options) {}

SegmentWriter::~SegmentWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors swallow close errors; call finish() to observe them.
  }
}

std::string SegmentWriter::segment_name(std::uint32_t shard_id,
                                        std::uint32_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "shard%03u-seg%06u.pcapng", shard_id, seq);
  return buf;
}

std::optional<std::pair<std::uint32_t, std::uint32_t>>
SegmentWriter::parse_segment_name(const std::string& name) {
  // shard<digits>-seg<digits>.pcapng
  constexpr std::string_view kShard = "shard";
  constexpr std::string_view kSeg = "-seg";
  constexpr std::string_view kExt = ".pcapng";
  if (name.size() < kShard.size() + kSeg.size() + kExt.size() + 2) {
    return std::nullopt;
  }
  if (name.compare(0, kShard.size(), kShard) != 0) return std::nullopt;
  const std::size_t seg_pos = name.find(kSeg, kShard.size());
  if (seg_pos == std::string::npos) return std::nullopt;
  if (name.compare(name.size() - kExt.size(), kExt.size(), kExt) != 0) {
    return std::nullopt;
  }
  std::uint32_t shard = 0, seq = 0;
  const char* shard_begin = name.data() + kShard.size();
  const char* shard_end = name.data() + seg_pos;
  const char* seq_begin = name.data() + seg_pos + kSeg.size();
  const char* seq_end = name.data() + name.size() - kExt.size();
  auto [p1, e1] = std::from_chars(shard_begin, shard_end, shard);
  auto [p2, e2] = std::from_chars(seq_begin, seq_end, seq);
  if (e1 != std::errc{} || p1 != shard_end) return std::nullopt;
  if (e2 != std::errc{} || p2 != seq_end) return std::nullopt;
  return std::make_pair(shard, seq);
}

void SegmentWriter::open_segment() {
  const std::uint32_t seq = next_seq_++;
  writer_ = std::make_unique<net::PcapngWriter>(
      dir_ / segment_name(shard_id_, seq), options_.snaplen);
  index_ = SegmentIndex{};
  index_.shard_id = shard_id_;
  index_.segment_seq = seq;
  if (options_.flow_bloom_bits != 0) {
    index_.flow_bloom = FlowBloom::make(options_.flow_bloom_bits, 4);
  }
  flow_tally_.clear();
  ++segments_opened_;
}

void SegmentWriter::close_segment() {
  if (!writer_) return;
  index_.flows.reserve(flow_tally_.size());
  for (const auto& [flow, packets] : flow_tally_) {
    index_.flows.push_back(SegmentFlowEntry{flow, packets});
  }
  // unordered_map iteration order is not specified; sort for
  // deterministic files (the soak diffs runs byte-for-byte).
  std::sort(index_.flows.begin(), index_.flows.end(),
            [](const SegmentFlowEntry& a, const SegmentFlowEntry& b) {
              return a.flow < b.flow;
            });
  const std::vector<std::byte> payload = encode_segment_index(index_);
  writer_->write_custom_block(kSegmentIndexPen, payload);
  writer_->close();
  finished_bytes_ += writer_->bytes_written();
  writer_.reset();
}

void SegmentWriter::note_packet(Nanos timestamp,
                                std::span<const std::byte> snapped) {
  ++index_.packet_count;
  index_.byte_count += snapped.size();
  index_.min_timestamp = std::min(index_.min_timestamp, timestamp);
  index_.max_timestamp = std::max(index_.max_timestamp, timestamp);
  if (const auto flow = net::parse_flow(snapped)) {
    // The bloom covers every parseable flow, including those the exact
    // tally caps out on — that is what lets flow queries skip
    // high-cardinality segments.
    if (!index_.flow_bloom.empty()) index_.flow_bloom.insert(*flow);
    const auto it = flow_tally_.find(*flow);
    if (it != flow_tally_.end()) {
      ++it->second;
    } else if (flow_tally_.size() < options_.flow_index_cap) {
      flow_tally_[*flow] = 1;
    } else {
      ++index_.unindexed_packets;
    }
  } else {
    ++index_.unindexed_packets;
  }
}

std::uint32_t SegmentWriter::write(Nanos timestamp,
                                   std::span<const std::byte> data,
                                   std::uint32_t wire_len,
                                   std::uint64_t packet_id) {
  std::uint32_t rotations = 0;
  if (writer_ && index_.packet_count > 0) {
    const Nanos new_min = std::min(index_.min_timestamp, timestamp);
    const Nanos new_max = std::max(index_.max_timestamp, timestamp);
    if (writer_->bytes_written() >= options_.segment_max_bytes ||
        new_max - new_min > options_.segment_max_span) {
      close_segment();
      rotations = 1;
    }
  }
  if (!writer_) open_segment();

  const std::span<const std::byte> snapped =
      data.first(std::min<std::size_t>(data.size(), options_.snaplen));
  writer_->write(timestamp, snapped, wire_len, 0, packet_id);
  ++packets_written_;
  note_packet(timestamp, snapped);
  return rotations;
}

std::uint32_t SegmentWriter::write_chunk(
    std::span<const engines::CaptureView> packets) {
  if (packets.empty()) return 0;

  // One rotation check for the whole batch against its timestamp
  // extent; a segment may overshoot a threshold by at most one chunk.
  Nanos batch_min = packets.front().timestamp;
  Nanos batch_max = packets.front().timestamp;
  for (const engines::CaptureView& view : packets.subspan(1)) {
    batch_min = std::min(batch_min, view.timestamp);
    batch_max = std::max(batch_max, view.timestamp);
  }
  std::uint32_t rotations = 0;
  if (writer_ && index_.packet_count > 0) {
    const Nanos new_min = std::min(index_.min_timestamp, batch_min);
    const Nanos new_max = std::max(index_.max_timestamp, batch_max);
    if (writer_->bytes_written() >= options_.segment_max_bytes ||
        new_max - new_min > options_.segment_max_span) {
      close_segment();
      rotations = 1;
    }
  }
  if (!writer_) open_segment();

  gather_slices_.clear();
  gather_slices_.reserve(packets.size());
  for (const engines::CaptureView& view : packets) {
    const std::span<const std::byte> snapped = view.bytes.first(
        std::min<std::size_t>(view.bytes.size(), options_.snaplen));
    gather_slices_.push_back(
        net::GatherSlice{view.timestamp, snapped, view.wire_len, view.seq});
    note_packet(view.timestamp, snapped);
  }
  writer_->write_gather(gather_slices_);
  packets_written_ += packets.size();
  return rotations;
}

void SegmentWriter::finish() { close_segment(); }

std::uint64_t SegmentWriter::total_bytes() const {
  return finished_bytes_ + (writer_ ? writer_->bytes_written() : 0);
}

// --- SpoolShard ---

SpoolShard::SpoolShard(sim::Scheduler& scheduler, const sim::CostModel& costs,
                       const SpoolConfig& config, std::uint32_t shard_id)
    : scheduler_(scheduler),
      costs_(costs),
      config_(config),
      shard_id_(shard_id),
      writer_(config.dir, shard_id,
              SegmentWriter::Options{config.snaplen, config.segment_max_bytes,
                                     config.segment_max_span,
                                     config.flow_index_cap,
                                     config.flow_bloom_bits}) {
  if (config_.queue_capacity_chunks == 0) {
    // kDropOldest would pop an empty deque; kBlock would never accept.
    throw std::invalid_argument("SpoolShard: queue_capacity_chunks == 0");
  }
}

void SpoolShard::discard(Queued&& item,
                         std::uint64_t ShardStats::*chunk_counter,
                         std::uint64_t ShardStats::*packet_counter) {
  stats_.*chunk_counter += 1;
  stats_.*packet_counter += item.chunk.packets.size();
  if (config_.record_lost_seqs) {
    for (const engines::CaptureView& view : item.chunk.packets) {
      lost_seqs_.push_back(view.seq);
    }
  }
  item.release(item.chunk);
}

void SpoolShard::offer(engines::ChunkCaptureView chunk, Release release) {
  if (closed_) {
    discard(Queued{std::move(chunk), std::move(release)},
            &ShardStats::chunks_evicted, &ShardStats::packets_evicted);
    return;
  }
  if (!accepting()) {
    switch (config_.policy) {
      case BackpressurePolicy::kBlock:
        ++stats_.block_overruns;
        break;
      case BackpressurePolicy::kDropNewest:
        discard(Queued{std::move(chunk), std::move(release)},
                &ShardStats::chunks_dropped_newest,
                &ShardStats::packets_dropped_newest);
        return;
      case BackpressurePolicy::kDropOldest:
        discard(std::move(queue_.front()), &ShardStats::chunks_dropped_oldest,
                &ShardStats::packets_dropped_oldest);
        queue_.pop_front();
        break;
    }
  }
  queue_.push_back(
      Queued{std::move(chunk), std::move(release), scheduler_.now()});
  ++stats_.chunks_enqueued;
  stats_.queue_high_water = std::max(
      stats_.queue_high_water, static_cast<std::uint64_t>(queue_.size()));
  maybe_start_write();
}

void SpoolShard::maybe_start_write() {
  while (!closed_ && !retry_scheduled_ && !queue_.empty() &&
         in_flight_.size() < std::max(1u, costs_.disk_queue_depth)) {
    const Nanos now = scheduler_.now();
    if (now < full_until_) {
      // ENOSPC: hold the queue (backpressure propagates to the pool)
      // and retry once space might be back.
      ++stats_.full_stalls;
      const Nanos retry =
          std::min(full_until_, now + costs_.disk_full_retry_interval);
      retry_scheduled_ = true;
      scheduler_.schedule_at(retry, [this] {
        retry_scheduled_ = false;
        maybe_start_write();
      });
      return;
    }
    start_write();
  }
}

void SpoolShard::start_write() {
  Queued item = std::move(queue_.front());
  queue_.pop_front();

  // The file bytes are produced NOW, at dequeue time, while the chunk's
  // cells are guaranteed live; the scheduled completion below only
  // models the disk latency and releases the chunk.  A ring close
  // between start and completion therefore cannot make the write read
  // freed memory.
  const std::uint64_t before = writer_.total_bytes();
  std::uint32_t rotations = 0;
  if (config_.vectored_drain) {
    rotations = writer_.write_chunk(item.chunk.packets);
  } else {
    for (const engines::CaptureView& view : item.chunk.packets) {
      rotations += writer_.write(view.timestamp, view.bytes, view.wire_len,
                                 view.seq);
    }
  }
  const std::uint64_t bytes = writer_.total_bytes() - before;

  const Nanos now = scheduler_.now();
  const double factor = now < slow_until_ ? slow_factor_ : 1.0;
  const double write_ns =
      static_cast<double>(bytes) * costs_.disk_write_ns_per_byte * factor;
  // Device occupancy: the serialized transfer, segment rotations, and —
  // on the packet-at-a-time path — one submission cost per packet.
  Nanos device = Nanos{static_cast<std::int64_t>(write_ns + 0.5)} +
                 static_cast<std::int64_t>(rotations) *
                     costs_.disk_segment_rotate_cost;
  if (!config_.vectored_drain) {
    device += static_cast<std::int64_t>(item.chunk.packets.size()) *
              costs_.disk_packet_write_cost;
  }
  // The device serializes transfers, but the fixed per-op completion
  // latency rides after each transfer and overlaps across outstanding
  // writes — the throughput win of queue depth > 1.
  const Nanos start = std::max(now, device_busy_until_);
  device_busy_until_ = start + device;
  const Nanos completion = device_busy_until_ + costs_.disk_write_op_cost;

  stats_.chunks_written += 1;
  stats_.packets_written += item.chunk.packets.size();
  stats_.bytes_written += bytes;
  stats_.segments_opened = writer_.segments_opened();
  const std::uint64_t op_id = next_op_id_++;
  in_flight_.push_back(InFlight{op_id, std::move(item)});
  stats_.in_flight_high_water =
      std::max(stats_.in_flight_high_water,
               static_cast<std::uint64_t>(in_flight_.size()));
  scheduler_.schedule_at(completion,
                         [this, op_id] { complete_write(op_id); });
}

void SpoolShard::complete_write(std::uint64_t op_id) {
  const auto it =
      std::find_if(in_flight_.begin(), in_flight_.end(),
                   [op_id](const InFlight& op) { return op.op_id == op_id; });
  // close()/evict_ring() settled this op already; the stale completion
  // must not release a second time (or touch a torn-down pool).
  if (it == in_flight_.end()) return;
  Queued done = std::move(it->item);
  in_flight_.erase(it);
  // Disk leg of the latency pipeline: offer() to release.  Recorded
  // unconditionally — this path already paid for a simulated disk
  // write, so one histogram increment is noise.
  drain_latency_.record((scheduler_.now() - done.offered_at).count());
  done.release(done.chunk);
  if (drain_callback_) drain_callback_();
  maybe_start_write();
}

void SpoolShard::settle(InFlight&& op) {
  Queued done = std::move(op.item);
  ++stats_.in_flight_settled;
  drain_latency_.record((scheduler_.now() - done.offered_at).count());
  done.release(done.chunk);
}

void SpoolShard::evict_ring(std::uint32_t ring) {
  std::deque<Queued> kept;
  while (!queue_.empty()) {
    Queued item = std::move(queue_.front());
    queue_.pop_front();
    if (item.chunk.source_ring == ring) {
      discard(std::move(item), &ShardStats::chunks_evicted,
              &ShardStats::packets_evicted);
    } else {
      kept.push_back(std::move(item));
    }
  }
  queue_ = std::move(kept);
  // Outstanding writes from the evicted ring: their bytes are already
  // in the segment file, but the deferred completion would release the
  // chunk into a torn-down pool.  Settle them now; the stale completion
  // event later finds no matching op_id and no-ops.
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->item.chunk.source_ring == ring) {
      InFlight op = std::move(*it);
      it = in_flight_.erase(it);
      settle(std::move(op));
    } else {
      ++it;
    }
  }
  maybe_start_write();
}

void SpoolShard::set_slow_disk(double factor, Nanos until) {
  if (factor < 1.0) throw std::invalid_argument("SpoolShard: factor < 1");
  slow_factor_ = factor;
  slow_until_ = until;
}

void SpoolShard::set_disk_full(Nanos until) { full_until_ = until; }

void SpoolShard::close() {
  if (closed_) return;
  closed_ = true;
  // Settle outstanding writes first: their bytes hit the file at submit
  // time, so the chunks are durably spooled — releasing them now keeps
  // the lifecycle auditor's conservation census exact when an
  // experiment ends mid-write.
  while (!in_flight_.empty()) {
    InFlight op = std::move(in_flight_.front());
    in_flight_.pop_front();
    settle(std::move(op));
  }
  while (!queue_.empty()) {
    Queued item = std::move(queue_.front());
    queue_.pop_front();
    discard(std::move(item), &ShardStats::chunks_evicted,
            &ShardStats::packets_evicted);
  }
  writer_.finish();
  stats_.segments_opened = writer_.segments_opened();
}

// --- Spool ---

Spool::Spool(sim::Scheduler& scheduler, const sim::CostModel& costs,
             SpoolConfig config)
    : config_(std::move(config)) {
  if (config_.num_shards == 0) {
    throw std::invalid_argument("Spool: num_shards == 0");
  }
  std::filesystem::create_directories(config_.dir);
  shards_.reserve(config_.num_shards);
  for (std::uint32_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<SpoolShard>(scheduler, costs, config_, i));
  }
}

bool Spool::drained() const {
  return std::all_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->backlog() == 0; });
}

void Spool::close() {
  for (const auto& shard : shards_) shard->close();
}

ShardStats Spool::total_stats() const {
  ShardStats total;
  for (const auto& shard : shards_) {
    const ShardStats& s = shard->stats();
    total.chunks_enqueued += s.chunks_enqueued;
    total.chunks_written += s.chunks_written;
    total.packets_written += s.packets_written;
    total.bytes_written += s.bytes_written;
    total.chunks_dropped_newest += s.chunks_dropped_newest;
    total.packets_dropped_newest += s.packets_dropped_newest;
    total.chunks_dropped_oldest += s.chunks_dropped_oldest;
    total.packets_dropped_oldest += s.packets_dropped_oldest;
    total.chunks_evicted += s.chunks_evicted;
    total.packets_evicted += s.packets_evicted;
    total.segments_opened += s.segments_opened;
    total.queue_high_water =
        std::max(total.queue_high_water, s.queue_high_water);
    total.block_overruns += s.block_overruns;
    total.full_stalls += s.full_stalls;
    total.in_flight_settled += s.in_flight_settled;
    total.in_flight_high_water =
        std::max(total.in_flight_high_water, s.in_flight_high_water);
  }
  return total;
}

void Spool::bind_telemetry(telemetry::Telemetry& telemetry,
                           const std::string& prefix) {
  telemetry::MetricRegistry& registry = telemetry.registry;
  for (const auto& shard_ptr : shards_) {
    SpoolShard* shard = shard_ptr.get();
    const std::string sp =
        prefix + ".shard" + std::to_string(shard->shard_id()) + ".";
    const auto counter = [&registry, shard, &sp](
                             const char* name,
                             std::uint64_t ShardStats::*field) {
      registry.bind_counter(sp + name,
                            [shard, field] { return shard->stats().*field; });
    };
    counter("chunks_enqueued", &ShardStats::chunks_enqueued);
    counter("chunks_written", &ShardStats::chunks_written);
    counter("packets_written", &ShardStats::packets_written);
    counter("bytes_written", &ShardStats::bytes_written);
    counter("chunks_dropped_newest", &ShardStats::chunks_dropped_newest);
    counter("packets_dropped_newest", &ShardStats::packets_dropped_newest);
    counter("chunks_dropped_oldest", &ShardStats::chunks_dropped_oldest);
    counter("packets_dropped_oldest", &ShardStats::packets_dropped_oldest);
    counter("chunks_evicted", &ShardStats::chunks_evicted);
    counter("packets_evicted", &ShardStats::packets_evicted);
    counter("segments_opened", &ShardStats::segments_opened);
    counter("queue_high_water", &ShardStats::queue_high_water);
    counter("block_overruns", &ShardStats::block_overruns);
    counter("full_stalls", &ShardStats::full_stalls);
    counter("in_flight_settled", &ShardStats::in_flight_settled);
    counter("in_flight_high_water", &ShardStats::in_flight_high_water);
    registry.bind_gauge(sp + "backlog", [shard] {
      return static_cast<double>(shard->backlog());
    });
    static constexpr struct {
      const char* name;
      double q;
    } kQuantiles[] = {
        {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};
    for (const auto& quantile : kQuantiles) {
      registry.bind_gauge(sp + "drain_latency." + quantile.name,
                          [shard, q = quantile.q] {
                            return shard->drain_latency().quantile(q);
                          });
    }
  }
}

}  // namespace wirecap::store
