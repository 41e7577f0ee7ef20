#include "store/reader.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "bpf/codegen.hpp"
#include "bpf/parser.hpp"
#include "bpf/predecode.hpp"
#include "net/headers.hpp"
#include "store/spool.hpp"

namespace wirecap::store {

namespace {

/// Reads every EPB of `path`, tolerating a file truncated mid-block
/// (crash mid-write): the readable prefix is returned and `truncated`
/// set, instead of the PcapngReader's std::runtime_error propagating.
std::vector<net::PcapngRecord> read_records_tolerant(
    const std::filesystem::path& path, bool& truncated) {
  std::vector<net::PcapngRecord> records;
  try {
    net::PcapngReader reader(path);
    while (auto record = reader.next()) records.push_back(std::move(*record));
  } catch (const std::runtime_error&) {
    truncated = true;
  }
  return records;
}

/// The 5-tuple fields a conjunctive BPF filter pins to single values.
struct FlowPins {
  std::optional<net::Ipv4Addr> src_ip, dst_ip;
  std::optional<std::uint16_t> src_port, dst_port;
  std::optional<net::IpProto> proto;
  /// Two conjuncts pinned the same field to different values; the
  /// filter is unsatisfiable on that field, so pruning stays off (the
  /// per-record filter still decides).
  bool contradictory = false;
};

/// Walks AND-chains collecting primitives that any matching packet must
/// satisfy.  kOr / kNot subtrees pin nothing (their conjunct-level
/// truth does not force a field value), which keeps every pin a
/// necessary condition — the soundness requirement for segment
/// pruning.
void collect_pins(const bpf::Expr& expr, FlowPins& pins) {
  if (expr.kind == bpf::ExprKind::kAnd) {
    collect_pins(*expr.lhs, pins);
    collect_pins(*expr.rhs, pins);
    return;
  }
  if (expr.kind != bpf::ExprKind::kPrimitive) return;
  const bpf::Primitive& p = expr.prim;
  const auto pin = [&pins](auto& slot, auto value) {
    if (slot.has_value() && *slot != value) {
      pins.contradictory = true;
    } else {
      slot = value;
    }
  };
  switch (p.kind) {
    case bpf::PrimitiveKind::kHost:
      if (p.dir == bpf::Direction::kSrc) pin(pins.src_ip, p.addr);
      if (p.dir == bpf::Direction::kDst) pin(pins.dst_ip, p.addr);
      return;
    case bpf::PrimitiveKind::kPort:
      if (p.dir == bpf::Direction::kSrc) pin(pins.src_port, p.port);
      if (p.dir == bpf::Direction::kDst) pin(pins.dst_port, p.port);
      return;
    case bpf::PrimitiveKind::kPortRange:
      if (p.port != p.port_hi) return;  // a real range pins nothing
      if (p.dir == bpf::Direction::kSrc) pin(pins.src_port, p.port);
      if (p.dir == bpf::Direction::kDst) pin(pins.dst_port, p.port);
      return;
    case bpf::PrimitiveKind::kProtoTcp:
      pin(pins.proto, net::IpProto::kTcp);
      return;
    case bpf::PrimitiveKind::kProtoUdp:
      pin(pins.proto, net::IpProto::kUdp);
      return;
    default:
      return;
  }
}

/// When the filter pins src/dst host and src/dst port, every matching
/// packet's parsed flow is one of the returned keys (port primitives
/// only match TCP/UDP, so an unpinned proto leaves exactly those two
/// candidates) — and the segment index can rule whole segments out.
std::vector<net::FlowKey> filter_flow_candidates(const std::string& filter) {
  std::vector<net::FlowKey> candidates;
  if (filter.empty()) return candidates;
  bpf::ExprPtr ast;
  try {
    ast = bpf::parse_filter(filter);
  } catch (const bpf::ParseError&) {
    return candidates;  // compile_filter will report it properly
  }
  if (!ast) return candidates;
  FlowPins pins;
  collect_pins(*ast, pins);
  if (pins.contradictory || !pins.src_ip || !pins.dst_ip ||
      !pins.src_port || !pins.dst_port) {
    return candidates;
  }
  net::FlowKey key;
  key.src_ip = *pins.src_ip;
  key.dst_ip = *pins.dst_ip;
  key.src_port = *pins.src_port;
  key.dst_port = *pins.dst_port;
  if (pins.proto.has_value()) {
    key.proto = *pins.proto;
    candidates.push_back(key);
  } else {
    key.proto = net::IpProto::kTcp;
    candidates.push_back(key);
    key.proto = net::IpProto::kUdp;
    candidates.push_back(key);
  }
  return candidates;
}

}  // namespace

StoreReader::StoreReader(const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("StoreReader: no such spool directory: " +
                             dir.string());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const auto parsed = SegmentWriter::parse_segment_name(name);
    if (!parsed) continue;
    std::optional<SegmentIndex> index = read_segment_index(entry.path());
    if (!index) {
      // No footer (writer died before finish()): synthesize the index
      // by scanning the packets that did make it to disk — including
      // the readable prefix of a file cut off mid-block.
      SegmentIndex synth;
      synth.shard_id = parsed->first;
      synth.segment_seq = parsed->second;
      bool truncated = false;
      for (const net::PcapngRecord& record :
           read_records_tolerant(entry.path(), truncated)) {
        ++synth.packet_count;
        synth.byte_count += record.data.size();
        synth.min_timestamp = std::min(synth.min_timestamp, record.timestamp);
        synth.max_timestamp = std::max(synth.max_timestamp, record.timestamp);
      }
      if (truncated) ++truncated_segments_;
      synth.unindexed_packets = synth.packet_count;
      index = synth;
    }
    files_.push_back(SegmentFile{entry.path(), *index});
  }
  std::sort(files_.begin(), files_.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              if (a.index.shard_id != b.index.shard_id) {
                return a.index.shard_id < b.index.shard_id;
              }
              return a.index.segment_seq < b.index.segment_seq;
            });
  segments_.reserve(files_.size());
  for (const SegmentFile& file : files_) segments_.push_back(file.index);
}

StoreReadStats StoreReader::read_merged(
    const StoreQuery& query,
    const std::function<void(const net::PcapngRecord&, std::uint32_t)>& fn)
    const {
  StoreReadStats stats;
  stats.segments_total = files_.size();

  // Compiled, verified and pre-decoded once per query, not per record.
  std::optional<bpf::Predecoded> filter;
  if (!query.filter.empty()) filter.emplace(bpf::compile_filter(query.filter));
  // A filter that pins a full 5-tuple prunes segments like an exact
  // flow query does.
  const std::vector<net::FlowKey> filter_flows =
      filter_flow_candidates(query.filter);

  // One cursor per surviving segment; segments are loaded (and sorted)
  // lazily the first time the merge needs their earliest record.
  struct Cursor {
    const SegmentFile* file = nullptr;
    std::vector<net::PcapngRecord> records;
    std::size_t next = 0;
    bool loaded = false;
  };
  std::vector<Cursor> cursors;
  for (const SegmentFile& file : files_) {
    if (!file.index.overlaps(query.start, query.end)) {
      ++stats.segments_skipped_time;
      continue;
    }
    if (query.flow && !file.index.may_contain_flow(*query.flow)) {
      ++stats.segments_skipped_flow;
      continue;
    }
    if (!filter_flows.empty()) {
      bool may = false;
      for (const net::FlowKey& key : filter_flows) {
        may = may || file.index.may_contain_flow(key);
      }
      if (!may) {
        ++stats.segments_skipped_filter;
        continue;
      }
    }
    cursors.push_back(Cursor{&file, {}, 0, false});
  }

  // Total merge order: (timestamp, shard id, segment seq); the record
  // index within a segment is implied by each cursor advancing in
  // sorted order.  stable_sort below preserves file order for equal
  // timestamps within one segment.
  struct HeapEntry {
    Nanos key;
    std::uint32_t shard_id;
    std::uint32_t segment_seq;
    std::size_t cursor;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.key != b.key) return a.key > b.key;
      if (a.shard_id != b.shard_id) return a.shard_id > b.shard_id;
      return a.segment_seq > b.segment_seq;
    }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    const SegmentIndex& index = cursors[i].file->index;
    if (index.packet_count == 0) continue;
    heap.push(HeapEntry{index.min_timestamp, index.shard_id,
                        index.segment_seq, i});
  }

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    Cursor& cursor = cursors[top.cursor];
    if (!cursor.loaded) {
      bool truncated = false;
      cursor.records = read_records_tolerant(cursor.file->path, truncated);
      std::stable_sort(cursor.records.begin(), cursor.records.end(),
                       [](const net::PcapngRecord& a,
                          const net::PcapngRecord& b) {
                         return a.timestamp < b.timestamp;
                       });
      cursor.loaded = true;
      if (cursor.records.empty()) continue;
      heap.push(HeapEntry{cursor.records.front().timestamp, top.shard_id,
                          top.segment_seq, top.cursor});
      continue;
    }

    const net::PcapngRecord& record = cursor.records[cursor.next];
    ++cursor.next;
    if (cursor.next < cursor.records.size()) {
      heap.push(HeapEntry{cursor.records[cursor.next].timestamp, top.shard_id,
                          top.segment_seq, top.cursor});
    }

    ++stats.packets_scanned;
    bool matches = true;
    if (query.start && record.timestamp < *query.start) matches = false;
    if (matches && query.end && record.timestamp > *query.end) matches = false;
    if (matches && query.flow) {
      matches = net::parse_flow(record.data) == *query.flow;
    }
    if (matches && filter) {
      matches = filter->matches(record.data, record.orig_len);
    }
    if (matches) {
      ++stats.packets_matched;
      fn(record, top.shard_id);
    }
    // Release a drained segment's records early: the merge holds at
    // most the segments whose time ranges currently overlap.
    if (cursor.next >= cursor.records.size()) {
      cursor.records.clear();
      cursor.records.shrink_to_fit();
    }
  }
  return stats;
}

std::vector<net::PcapngRecord> StoreReader::read_all(
    const StoreQuery& query) const {
  std::vector<net::PcapngRecord> records;
  read_merged(query, [&records](const net::PcapngRecord& record,
                                std::uint32_t /*shard*/) {
    records.push_back(record);
  });
  return records;
}

}  // namespace wirecap::store
