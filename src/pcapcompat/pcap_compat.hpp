// Libpcap-compatible interface (§3.3): "The user-mode library ...
// provides a standard interface for low-level network access and allows
// existing network monitoring applications to use WireCAP without
// changes."
//
// The facade mirrors the libpcap call shapes — open / compile /
// setfilter / dispatch / loop / next_ex / stats / inject / close — over
// any CaptureEngine (WireCAP or a baseline), with filters compiled by
// the built-in BPF compiler and executed exactly as a kernel socket
// filter would be.
//
// Internally the handle is batch-granular: it pulls whole chunk batches
// via CaptureEngine::try_next_batch(), filters each batch in one
// bpf::Predecoded::run_batch() pass, and recycles with a single
// done_batch() — per-packet calls never cross the engine boundary, even
// when the caller consumes one packet at a time through next_ex().
// Delivery semantics are unchanged from the per-packet implementation:
// dispatch(count) stops after exactly `count` matched packets (a
// partially consumed batch is resumed by the next call), and stats()
// counts a packet only once the read position has passed it.
//
// dispatch() is non-blocking (processes what is available); loop() runs
// until `count` packets have been handled or breakloop() is called,
// driving the simulation scheduler while it waits — the moral
// equivalent of a blocking read.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bpf/insn.hpp"
#include "bpf/predecode.hpp"
#include "engines/engine.hpp"
#include "sim/scheduler.hpp"

namespace wirecap::pcap {

/// Mirrors struct pcap_pkthdr.
struct PacketHeader {
  std::int64_t ts_ns = 0;     // capture timestamp
  std::uint32_t caplen = 0;   // bytes available
  std::uint32_t len = 0;      // original wire length
};

/// Mirrors struct pcap_stat.
struct Stats {
  std::uint64_t ps_recv = 0;    // packets received (delivered + filtered)
  std::uint64_t ps_drop = 0;    // dropped for lack of buffer (delivery)
  std::uint64_t ps_ifdrop = 0;  // dropped by the interface (capture)
};

/// The one canonical handler shape: header by reference, data as a span.
using Handler =
    std::function<void(const PacketHeader&, std::span<const std::byte>)>;

class PcapHandle {
 public:
  /// Number of packets pulled from the engine per try_next_batch call.
  /// Matches the default WireCAP chunk size M, so on WireCAP one batch
  /// is one chunk (metadata-only, one recycle).
  static constexpr std::size_t kBatchPackets = 256;

  /// Opens `queue` of the engine for "live" capture.  `app_core` is the
  /// simulated core the reading application runs on.
  PcapHandle(sim::Scheduler& scheduler, engines::CaptureEngine& engine,
             nic::MultiQueueNic& nic, std::uint32_t queue,
             sim::SimCore& app_core);
  ~PcapHandle();

  PcapHandle(const PcapHandle&) = delete;
  PcapHandle& operator=(const PcapHandle&) = delete;

  /// pcap_compile: builds a BPF program from a filter expression.
  /// Throws bpf::ParseError / std::invalid_argument on a bad filter.
  [[nodiscard]] static bpf::Program compile(const std::string& expression);

  /// pcap_setfilter: only packets matching `program` reach the handler;
  /// the rest are consumed and counted, as with a kernel filter.  The
  /// program is verified and pre-decoded once, here — the dispatch path
  /// runs the bpf::Predecoded form.
  void set_filter(bpf::Program program);

  /// pcap_dispatch: processes up to `count` available packets (all
  /// available if count <= 0) without blocking.  Returns the number
  /// passed to the handler.
  int dispatch(int count, const Handler& handler);

  /// pcap_loop: handles packets until `count` have been delivered
  /// (forever if count <= 0) or breakloop() is called, advancing the
  /// simulation while idle.  Returns packets handled, or -2 if broken.
  int loop(int count, const Handler& handler);

  /// pcap_next_ex: yields the next matching packet without a callback.
  /// Returns 1 and fills `header`/`data` when a packet is available, 0
  /// when nothing is pending (non-blocking, like a read timeout).  The
  /// data span stays valid until the next call into the handle — batch
  /// recycling is deferred, exactly the libpcap validity contract.
  int next_ex(PacketHeader& header, std::span<const std::byte>& data);

  /// pcap_breakloop.
  void breakloop() { break_ = true; }

  /// pcap_inject / pcap_sendpacket: transmits the most recently
  /// delivered packet (zero-copy forward) out `tx_queue` of `out_nic`.
  /// Must be called from inside the handler.  Returns bytes sent or -1.
  int inject(nic::MultiQueueNic& out_nic, std::uint32_t tx_queue);

  /// pcap_stats.
  [[nodiscard]] Stats stats() const;

  /// Attaches an in-capture processing hook run over every freshly
  /// pulled batch *before* the handle's own filter pass — the pipeline
  /// pushdown seam (bind a pipeline::Pipeline's run() here to truncate,
  /// sample, or pre-drop packets ahead of pcap delivery).  The hook may
  /// compact `batch.views` in place, even down to zero packets:
  /// releases follow `batch.refs`, so dropped views still recycle.
  /// Null clears.
  void set_batch_hook(std::function<void(engines::PacketBatch&)> hook) {
    batch_hook_ = std::move(hook);
  }

  [[nodiscard]] std::uint32_t queue() const { return queue_; }

 private:
  // Per-view disposition inside the current batch.
  enum : std::uint8_t { kFiltered = 0, kMatched = 1, kInjected = 2 };

  /// Releases the current batch back to the engine: one done_batch
  /// settling the batch's refs (views the handler forwarded were
  /// subtracted at inject time).  Tolerates a batch whose views were
  /// compacted away entirely — the refs still recycle the chunk.
  void release_batch();
  /// release_batch(), then pulls + filters the next batch.  Returns
  /// false when the engine has nothing pending.
  bool refill_batch();
  /// Skips (and counts) filtered-out views up to the next match,
  /// refilling across batch boundaries; returns nullptr when drained.
  /// Leaves cursor_ on the returned view.
  const engines::CaptureView* advance_to_match();
  void deliver(const engines::CaptureView& view, const Handler& handler);

  sim::Scheduler& scheduler_;
  engines::CaptureEngine& engine_;
  nic::MultiQueueNic& nic_;
  std::uint32_t queue_;
  std::optional<bpf::Predecoded> filter_;
  std::function<void(engines::PacketBatch&)> batch_hook_;
  bool break_ = false;
  std::uint64_t matched_ = 0;
  std::uint64_t filtered_out_ = 0;

  engines::PacketBatch batch_;          // current batch (may be mid-read)
  std::vector<std::uint8_t> accepts_;   // per-view disposition
  std::size_t cursor_ = 0;              // next unprocessed view index
  std::size_t injected_in_batch_ = 0;

  // Set while inside the handler so inject() can forward the packet.
  const engines::CaptureView* in_flight_ = nullptr;
  bool injected_ = false;
};

}  // namespace wirecap::pcap
