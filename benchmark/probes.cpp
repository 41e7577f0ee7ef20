#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "bpf/codegen.hpp"
#include "bpf/predecode.hpp"
#include "common/mpmc_queue.hpp"
#include "common/spsc_ring.hpp"
#include "common/steal_inbox.hpp"
#include "driver/wirecap_driver.hpp"
#include "sim/costs.hpp"
#include "sim/scheduler.hpp"
#include "store/spool.hpp"
#include "workloads.hpp"

namespace wirecap::benchmark {

namespace {

using Clock = std::chrono::steady_clock;
using driver::ChunkMeta;

constexpr int kRepetitions = 5;
/// Cells per chunk of the driver probe (the workloads' M).
constexpr std::uint32_t kCells = 256;

/// Keeps probe results observable so the loops are not optimized away.
volatile std::uint64_t g_sink = 0;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

template <typename F>
double median_of(int repetitions, F&& once) {
  std::vector<double> values;
  for (int i = 0; i < repetitions; ++i) values.push_back(once());
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

ChunkMeta meta_for(std::uint64_t i) {
  ChunkMeta meta;
  meta.ring_id = static_cast<std::uint32_t>(i & 7);
  meta.chunk_id = static_cast<std::uint32_t>(i);
  meta.pkt_count = kCells;
  return meta;
}

/// Schedule + dispatch of one event that does nothing but schedule its
/// successor, with a few such chains pending at once (the steady state of
/// the fabric: each actor keeps about one event queued).
double probe_empty_event() {
  constexpr std::uint64_t kEvents = 1 << 21;
  constexpr int kChains = 8;
  return median_of(kRepetitions, [] {
    sim::Scheduler scheduler;
    std::uint64_t fired = 0;
    std::function<void()> tick = [&] {
      if (++fired < kEvents) scheduler.schedule_after(Nanos{kChains}, tick);
    };
    const auto t0 = Clock::now();
    for (int c = 0; c < kChains; ++c) scheduler.schedule_at(Nanos{c}, tick);
    scheduler.run();
    return ns_since(t0) / static_cast<double>(fired);
  });
}

/// One push + pop on the same thread.
double probe_spsc() {
  constexpr std::uint64_t kOps = 1 << 22;
  return median_of(kRepetitions, [] {
    SpscRing<ChunkMeta> ring(1024);
    ChunkMeta out;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      (void)ring.try_push(meta_for(i));
      ring.try_pop(out);
      sum += out.chunk_id;
    }
    const double ns = ns_since(t0) / static_cast<double>(kOps);
    g_sink = g_sink + sum;
    return ns;
  });
}

/// Per item, producer and consumer on two threads.
double probe_spsc_cross_core() {
  constexpr std::uint64_t kItems = 1 << 21;
  return median_of(kRepetitions, [] {
    SpscRing<ChunkMeta> ring(1024);
    std::atomic<bool> go{false};
    std::jthread producer([&ring, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!ring.try_push(meta_for(i)).ok()) {
        }
      }
    });
    ChunkMeta out;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      while (!ring.try_pop(out)) {
      }
      sum += out.chunk_id;
    }
    const double ns = ns_since(t0) / static_cast<double>(kItems);
    g_sink = g_sink + sum;
    return ns;
  });
}

/// One deposit + claim on the same thread.
double probe_steal_inbox() {
  constexpr std::uint64_t kOps = 1 << 22;
  return median_of(kRepetitions, [] {
    StealInbox<ChunkMeta> inbox;
    ChunkMeta out;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      (void)inbox.try_deposit(meta_for(i));
      inbox.try_claim(out);
      sum += out.chunk_id;
    }
    const double ns = ns_since(t0) / static_cast<double>(kOps);
    g_sink = g_sink + sum;
    return ns;
  });
}

/// One push + pop on the mutex+condvar queue, uncontended.
double probe_mpmc() {
  constexpr std::uint64_t kOps = 1 << 21;
  return median_of(kRepetitions, [] {
    MpmcQueue<ChunkMeta> queue(1024);
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      (void)queue.push_result(meta_for(i));
      sum += queue.try_pop()->chunk_id;
    }
    const double ns = ns_since(t0) / static_cast<double>(kOps);
    g_sink = g_sink + sum;
    return ns;
  });
}

/// The driver's capture and recycle ioctls over the sample: receive one
/// chunk's worth of packets, capture it, recycle it.  Returns host ns
/// per chunk for each.
std::pair<double, double> probe_driver(
    const std::vector<net::WirePacket>& sample) {
  std::vector<double> capture_ns;
  std::vector<double> recycle_ns;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    sim::Scheduler scheduler;
    sim::IoBus bus(scheduler, Rate{0.0});
    nic::NicConfig config;
    nic::MultiQueueNic nic(scheduler, bus, config);
    driver::WirecapDriverConfig driver_config;
    driver_config.cells_per_chunk = kCells;
    driver::WirecapQueueDriver drv(nic, 0, driver_config);
    drv.open();
    std::vector<ChunkMeta> captured;
    double capture_total = 0.0;
    double recycle_total = 0.0;
    std::uint64_t chunks = 0;
    for (std::size_t base = 0; base + kCells <= sample.size(); base += kCells) {
      for (std::size_t i = base; i < base + kCells; ++i) nic.receive(sample[i]);
      captured.clear();
      const auto t0 = Clock::now();
      (void)drv.capture(sample[base + kCells - 1].timestamp(), 16, captured);
      const auto t1 = Clock::now();
      drv.recycle_batch(captured);
      recycle_total += ns_since(t1);
      capture_total +=
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      chunks += captured.size();
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(chunks, 1));
    capture_ns.push_back(capture_total / n);
    recycle_ns.push_back(recycle_total / n);
  }
  std::sort(capture_ns.begin(), capture_ns.end());
  std::sort(recycle_ns.begin(), recycle_ns.end());
  return {capture_ns[capture_ns.size() / 2], recycle_ns[recycle_ns.size() / 2]};
}

/// Views over the sample in chunk-sized batches (the batch shape a chunk
/// delivers).  The views alias `packets`.
std::vector<engines::PacketBatch> as_batches(
    std::vector<net::WirePacket>& packets) {
  std::vector<engines::PacketBatch> batches;
  for (std::size_t base = 0; base < packets.size(); base += kCells) {
    engines::PacketBatch batch;
    const std::size_t end =
        std::min<std::size_t>(packets.size(), base + kCells);
    for (std::size_t i = base; i < end; ++i) {
      batch.views.push_back(engines::CaptureView{
          packets[i].mutable_bytes(), packets[i].wire_len(),
          packets[i].timestamp(), packets[i].seq(), i});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

double reference_loop_ns() {
  constexpr std::uint64_t kIterations = 1'000'000;
  std::uint64_t h = 1;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    const std::uint32_t in = static_cast<std::uint32_t>(h >> 7);
    std::uint32_t window = 0x6d5a56da;
    std::uint32_t hash = 0;
    for (int bit = 31; bit >= 0; --bit) {
      if ((in >> bit) & 1) hash ^= window;
      window = (window << 1) | (window >> 31);
    }
    h = h * 0x9E3779B97F4A7C15ULL + hash;
  }
  const double ns = ns_since(t0) / static_cast<double>(kIterations);
  g_sink = g_sink + h;
  return ns;
}

ProbeResults run_probes(const std::vector<net::WirePacket>& sample,
                        const std::filesystem::path& dir) {
  ProbeResults out;
  auto& m = out.metrics;
  m["sim.empty_event_ns"] = probe_empty_event();
  m["common.spsc_ns"] = probe_spsc();
  m["common.spsc_cross_core_ns"] = probe_spsc_cross_core();
  m["common.steal_inbox_ns"] = probe_steal_inbox();
  m["common.mpmc_ns"] = probe_mpmc();

  const auto [capture_ns, recycle_ns] = probe_driver(sample);
  out.capture_chunk_ns = capture_ns;
  out.recycle_chunk_ns = recycle_ns;
  m["driver.capture_recycle_ns_per_pkt"] = (capture_ns + recycle_ns) / kCells;

  std::vector<net::WirePacket> packets = sample;
  const std::vector<engines::PacketBatch> batches = as_batches(packets);
  const double count =
      static_cast<double>(std::max<std::size_t>(packets.size(), 1));

  const bpf::Predecoded filter(bpf::compile_filter(kPipelineFilter));
  m["bpf.run_batch_ns_per_pkt"] = median_of(kRepetitions, [&] {
    std::vector<std::uint8_t> accepts;
    std::uint64_t matched = 0;
    const auto t0 = Clock::now();
    for (const engines::PacketBatch& batch : batches) {
      matched += filter.run_batch(batch, accepts);
    }
    const double ns = ns_since(t0) / count;
    g_sink = g_sink + matched;
    return ns;
  });
  m["bpf.run_ns_per_pkt"] = median_of(kRepetitions, [&] {
    std::uint64_t matched = 0;
    const auto t0 = Clock::now();
    for (const net::WirePacket& packet : packets) {
      matched += filter.matches(packet.bytes(), packet.wire_len());
    }
    const double ns = ns_since(t0) / count;
    g_sink = g_sink + matched;
    return ns;
  });

  std::filesystem::create_directories(dir);
  const store::SpoolConfig spool = spool_config(dir);
  store::SegmentWriter::Options options;
  options.snaplen = spool.snaplen;
  options.segment_max_bytes = spool.segment_max_bytes;
  options.segment_max_span = spool.segment_max_span;
  options.flow_index_cap = spool.flow_index_cap;
  options.flow_bloom_bits = spool.flow_bloom_bits;
  std::uint32_t shard = 0;
  m["store.write_chunk_ns_per_pkt"] = median_of(kRepetitions, [&] {
    store::SegmentWriter writer(dir, shard++, options);
    const auto t0 = Clock::now();
    for (const engines::PacketBatch& batch : batches) {
      writer.write_chunk(batch.views);
    }
    writer.finish();
    return ns_since(t0) / count;
  });
  m["store.write_ns_per_pkt"] = median_of(kRepetitions, [&] {
    store::SegmentWriter writer(dir, shard++, options);
    const auto t0 = Clock::now();
    for (const net::WirePacket& packet : packets) {
      writer.write(packet.timestamp(), packet.bytes(), packet.wire_len(),
                   packet.seq());
    }
    writer.finish();
    return ns_since(t0) / count;
  });
  std::filesystem::remove_all(dir);
  return out;
}

void print_calibration(const ProbeResults& probes, std::FILE* out) {
  const sim::CostModel costs;
  const auto metric = [&](const char* name) { return probes.metrics.at(name); };
  struct Compared {
    const char* constant;
    double assumed_ns;
    double measured_ns;
    const char* measured_by;
  };
  const Compared compared[] = {
      {"lockfree_handoff_cost",
       static_cast<double>(costs.lockfree_handoff_cost.count()),
       metric("common.spsc_cross_core_ns"),
       "SpscRing push+pop across two threads, per chunk"},
      {"mutex_handoff_cost",
       static_cast<double>(costs.mutex_handoff_cost.count()),
       metric("common.mpmc_ns"), "MpmcQueue push+pop, uncontended, per chunk"},
      {"capture_chunk_cost",
       static_cast<double>(costs.capture_chunk_cost.count()),
       probes.capture_chunk_ns, "WirecapQueueDriver::capture, per chunk"},
      {"recycle_chunk_cost",
       static_cast<double>(costs.recycle_chunk_cost.count()),
       probes.recycle_chunk_ns, "WirecapQueueDriver::recycle_batch, per chunk"},
      {"disk_packet_write_cost",
       static_cast<double>(costs.disk_packet_write_cost.count()),
       metric("store.write_ns_per_pkt") -
           metric("store.write_chunk_ns_per_pkt"),
       "SegmentWriter::write minus write_chunk, per packet"},
  };
  std::fprintf(out, "# CostModel constants modelling this repo's code: "
                    "measured host cost vs assumed\n");
  for (const Compared& c : compared) {
    std::fprintf(out, "calib.%s_assumed %.6g ns\n", c.constant, c.assumed_ns);
    std::fprintf(out, "calib.%s_measured %.6g ns  (%s)\n", c.constant,
                 c.measured_ns, c.measured_by);
    std::fprintf(out, "calib.%s_ratio %.6g x\n", c.constant,
                 c.measured_ns / c.assumed_ns);
  }
  struct Uncompared {
    const char* constant;
    double value;
    const char* unit;
    const char* basis;
  };
  const Uncompared uncompared[] = {
      {"app_base_cost", static_cast<double>(costs.app_base_cost.count()), "ns",
       "paper"},
      {"bpf_run_cost_ns", costs.bpf_run_cost_ns, "ns", "paper"},
      {"forward_attach_cost",
       static_cast<double>(costs.forward_attach_cost.count()), "ns", "paper"},
      {"pfring_kernel_cost",
       static_cast<double>(costs.pfring_kernel_cost.count()), "ns", "paper"},
      {"napi_wakeup_delay",
       static_cast<double>(costs.napi_wakeup_delay.count()), "ns", "paper"},
      {"napi_budget", static_cast<double>(costs.napi_budget), "packets",
       "paper"},
      {"ring_sync_cost", static_cast<double>(costs.ring_sync_cost.count()),
       "ns", "paper"},
      {"partial_copy_cost",
       static_cast<double>(costs.partial_copy_cost.count()), "ns", "paper"},
      {"capture_poll_interval",
       static_cast<double>(costs.capture_poll_interval.count()), "ns",
       "paper"},
      {"partial_chunk_timeout",
       static_cast<double>(costs.partial_chunk_timeout.count()), "ns",
       "paper"},
      {"condvar_wakeup_delay",
       static_cast<double>(costs.condvar_wakeup_delay.count()), "ns",
       "hardware"},
      {"numa_remote_capture_cost",
       static_cast<double>(costs.numa_remote_capture_cost.count()), "ns",
       "hardware"},
      {"numa_remote_handoff_cost",
       static_cast<double>(costs.numa_remote_handoff_cost.count()), "ns",
       "hardware"},
      {"disk_write_ns_per_byte", costs.disk_write_ns_per_byte, "ns",
       "hardware"},
      {"disk_write_op_cost",
       static_cast<double>(costs.disk_write_op_cost.count()), "ns",
       "hardware"},
      {"disk_segment_rotate_cost",
       static_cast<double>(costs.disk_segment_rotate_cost.count()), "ns",
       "hardware"},
      {"disk_full_retry_interval",
       static_cast<double>(costs.disk_full_retry_interval.count()), "ns",
       "hardware"},
      {"disk_queue_depth", static_cast<double>(costs.disk_queue_depth),
       "writes", "hardware"},
  };
  std::fprintf(out, "# Constants calibrated to the paper's testbed or "
                    "modelling hardware: listed, not compared\n");
  for (const Uncompared& u : uncompared) {
    std::fprintf(out, "calib.uncompared.%s %.6g %s  (%s)\n", u.constant,
                 u.value, u.unit, u.basis);
  }
}

}  // namespace wirecap::benchmark
