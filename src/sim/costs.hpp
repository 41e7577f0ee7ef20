// Calibrated per-operation CPU and bus costs.
//
// The paper pins down two absolute rates on its 2.4 GHz Intel E5-2690
// testbed, and every cost below is chosen to be consistent with them:
//
//   * pkt_handler with x = 300 BPF applications per packet sustains
//     38,844 packets/s  =>  total per-packet cost 25,744 ns.
//   * with x = 0, DNA / NETMAP / WireCAP capture 64-byte packets at the
//     10 GbE wire rate (14.88 Mp/s => 67.2 ns budget per packet) without
//     loss, while PF_RING drops: its kernel-side copy alone must exceed
//     the budget.
//
// Hence: app_base_cost + 300 * bpf_run_cost = 25,744 ns with
// app_base_cost below 67 ns, and pf_ring_copy_cost above 67 ns.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace wirecap::sim {

struct CostModel {
  // --- application (user priority, runs on the app thread's core) ---

  /// Per-packet cost of the pcap-style read path: popping a packet from a
  /// capture queue / mapped ring, touching its header.  55 ns keeps a
  /// single core just above wire rate at x = 0.
  Nanos app_base_cost = Nanos{55};

  /// One application of the compiled BPF filter to one packet, in
  /// (fractional) nanoseconds.  300 applications at 85.63 ns plus the
  /// base cost gives exactly the paper's 38,844 p/s.
  double bpf_run_cost_ns = 85.63;

  /// Per-packet cost of forwarding (attach to a TX descriptor, metadata
  /// only — the packet body is not copied).  Low enough that a single
  /// core forwards 100-byte frames at wire rate (Fig. 14's lossless
  /// 100 B row).
  Nanos forward_attach_cost = Nanos{28};

  // --- Type-I engine (PF_RING): kernel priority on the app core ---

  /// NAPI softirq per-packet work (copy into the pf_ring buffer plus
  /// softirq and wakeup overhead that per-packet processing cannot
  /// amortize).  Far above the 67.2 ns wire-rate budget: PF_RING cannot
  /// capture 64-byte packets at wire speed, and because this work runs
  /// at kernel priority on the application's core it also starves the
  /// application (receive livelock) — the calibration behind PF_RING's
  /// 56.8% delivery-drop rate at queue 0 of Table 1.
  Nanos pfring_kernel_cost = Nanos{1800};

  /// Latency between packet arrival in an empty ring and the NAPI poll
  /// loop starting to service it (interrupt + softirq scheduling).
  Nanos napi_wakeup_delay = Nanos::from_micros(60);

  /// Calibration reference only — no engine path charges it: packets
  /// drained per NAPI poll invocation (the Linux NAPI "budget").  The
  /// PF_RING model services one packet per NAPI step.
  unsigned napi_budget = 64;

  // --- Type-II engines (DNA / NETMAP): app-driven sync ---

  /// Calibration reference only — no engine path charges it: the
  /// per-packet amortized cost of the ring sync ioctl (descriptor
  /// reinitialization, batched).  DNA, NETMAP and PSIOE's inner ring
  /// charge their own sync costs (6, 9 and 8 ns) through Type2Config.
  Nanos ring_sync_cost = Nanos{8};

  // --- WireCAP driver operations (run on the capture thread's core) ---

  /// One capture ioctl moving one full chunk to user space (metadata
  /// only).  Amortized per packet this is capture_chunk_cost / M.
  Nanos capture_chunk_cost = Nanos::from_micros(2.0);

  /// One recycle ioctl returning one chunk to the free pool.
  Nanos recycle_chunk_cost = Nanos::from_micros(0.5);

  /// Per-packet cost of the timeout path that copies a partially filled
  /// chunk into a free chunk.
  Nanos partial_copy_cost = Nanos{100};

  /// Polling interval of a WireCAP capture thread when its ring has no
  /// full chunk (also the blocking-capture timeout granularity).
  Nanos capture_poll_interval = Nanos::from_micros(50);

  /// Calibration reference only — no engine path charges it: what
  /// placing one chunk's metadata on a mutex+condvar queue (lock, push,
  /// unlock, notify under light contention) would cost, printed next to
  /// the measured MpmcQueue handoff for comparison.
  Nanos mutex_handoff_cost = Nanos{150};

  /// Placing one chunk's metadata on the lock-free SPSC ring or steal
  /// inbox: a couple of uncontended atomics, no syscall, no futex.
  Nanos lockfree_handoff_cost = Nanos{25};

  /// Calibration reference only — no engine path charges it: the delay
  /// between a condvar notify and the blocked thread actually running
  /// (futex wake + scheduler dispatch), a latency the poll-driven
  /// lock-free delivery never pays.
  Nanos condvar_wakeup_delay = Nanos::from_micros(2.0);

  /// Timeout after which a partially-filled chunk is copied out rather
  /// than held in the ring (the paper's "avoids holding packets in the
  /// receive ring for too long").
  Nanos partial_chunk_timeout = Nanos::from_millis(1.0);

  // --- NUMA placement (two-socket capture boxes) ---

  /// Extra capture-ioctl cost per chunk when the queue's capture thread
  /// (and its ring buffer pool) sit on a different socket than the NIC:
  /// the DMA'd descriptors and cell headers are read across the
  /// interconnect instead of from the local LLC.  ~0.3 µs/chunk keeps
  /// the per-packet penalty (÷M) around the measured 1-2 ns remote-read
  /// tax at M = 256 while making misplacement visible at small M.
  Nanos numa_remote_capture_cost = Nanos{300};

  /// Extra handoff cost per chunk when an offload target's socket
  /// differs from the dispatching queue's: the enqueue and the
  /// consumer's subsequent reads bounce cache lines across sockets.
  Nanos numa_remote_handoff_cost = Nanos{120};

  // --- capture-to-disk spool (src/store) ---

  /// Sustained simulated-disk cost per byte spooled (0.25 ns/B ≈ 4 GB/s,
  /// a modern NVMe stream).  The spool's slow-disk fault multiplies it.
  double disk_write_ns_per_byte = 0.25;

  /// Fixed per-chunk submission overhead of one spool write (syscall /
  /// queued-IO doorbell, amortized over the chunk's M packets).
  Nanos disk_write_op_cost = Nanos::from_micros(2.0);

  /// Cost of rotating a spool segment: finalize the footer index, fsync,
  /// open the successor.
  Nanos disk_segment_rotate_cost = Nanos::from_micros(50.0);

  /// How long a shard whose disk reported full waits before retrying.
  Nanos disk_full_retry_interval = Nanos::from_micros(100.0);

  /// Outstanding spool writes the simulated disk accepts before a shard
  /// stops submitting (NVMe-style queued IO).  At depth N the fixed
  /// disk_write_op_cost completion latency of up to N chunks overlaps;
  /// depth 1 reproduces the old synchronous one-write-at-a-time drain.
  unsigned disk_queue_depth = 4;

  /// Extra per-packet submission cost of the packet-at-a-time drain (one
  /// write call per packet).  The vectored gather path pays it once per
  /// chunk instead — the writev()-vs-write() gap this model exposes.
  Nanos disk_packet_write_cost = Nanos{600};

  // --- bus transactions (dimensionless multipliers of one DMA write) ---

  /// WireCAP's extra bus traffic per packet (chunk attach + capture
  /// metadata, amortized over M packets plus pool-management accesses).
  double wirecap_extra_transactions_per_packet = 0.08;

  /// Extra per-packet bus cost modelling page-table pressure when very
  /// large ring-buffer pools are configured (the paper's "big-memory
  /// application pays a high cost for page-based virtual memory",
  /// Fig. 14 WireCAP-A-(256,500) at 5-6 queues/NIC).  Applied per MiB of
  /// total pool memory by wirecap_rx_transactions_per_packet().
  double memory_pressure_transactions_per_mib = 1e-4;

  /// WireCAP's bus transactions per received packet: the DMA write, the
  /// chunk-management extra, and page-table pressure from `pool_bytes`
  /// of ring-buffer pools in total (§4 "Scalability", §5a; only visible
  /// when the bus is constrained).
  [[nodiscard]] constexpr double wirecap_rx_transactions_per_packet(
      std::uint64_t pool_bytes) const {
    const double pool_mib =
        static_cast<double>(pool_bytes) / (1024.0 * 1024.0);
    return 1.0 + wirecap_extra_transactions_per_packet +
           memory_pressure_transactions_per_mib * pool_mib;
  }

  /// Returns the per-packet cost of one pkt_handler iteration at BPF
  /// repetition count x.
  [[nodiscard]] constexpr Nanos pkt_handler_cost(unsigned x) const {
    const double bpf_total = static_cast<double>(x) * bpf_run_cost_ns;
    return app_base_cost + Nanos{static_cast<std::int64_t>(bpf_total + 0.5)};
  }
};

/// The reference rate the paper reports for x = 300 at 2.4 GHz.
inline constexpr double kPaperPktHandlerRate300 = 38844.0;

/// 10 GbE wire rate for 64-byte frames (packets per second).
inline constexpr double kWireRate64B = 14'880'952.0;

}  // namespace wirecap::sim
