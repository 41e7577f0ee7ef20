#include "pcapcompat/pcap_compat.hpp"

#include "bpf/codegen.hpp"
#include "bpf/vm.hpp"

namespace wirecap::pcap {

PcapHandle::PcapHandle(sim::Scheduler& scheduler,
                       engines::CaptureEngine& engine,
                       nic::MultiQueueNic& nic, std::uint32_t queue,
                       sim::SimCore& app_core)
    : scheduler_(scheduler), engine_(engine), nic_(nic), queue_(queue) {
  engine_.open(queue, app_core);
}

PcapHandle::~PcapHandle() {
  // Hand any in-progress batch home before the queue (and with it the
  // pool the views alias) is torn down.
  release_batch();
  engine_.close(queue_);
}

bpf::Program PcapHandle::compile(const std::string& expression) {
  return bpf::compile_filter(expression);
}

void PcapHandle::set_filter(bpf::Program program) {
  const auto verified = bpf::verify(program);
  if (!verified.ok) {
    throw std::invalid_argument("set_filter: " + verified.error);
  }
  // Verified once, decoded once; the hot path never re-validates.
  filter_.emplace(program);
  // Views already pulled were filtered under the previous program; the
  // new filter applies from the next batch on (kernel-attach semantics).
}

void PcapHandle::release_batch() {
  // An empty views vector does NOT mean nothing to release: a pushdown
  // stage may have compacted the whole batch away while its refs (the
  // chunk's release obligations) remain.  Gating on views alone leaked
  // the chunk — the satellite regression in test_pcap_compat.
  if (batch_.views.empty() && batch_.refs.empty()) return;
  // Injected views were subtracted from the refs at inject time, so
  // done_batch() settles exactly the releases still owed.
  engine_.done_batch(queue_, batch_);  // one recycle per batch
  batch_.clear();
  injected_in_batch_ = 0;
  cursor_ = 0;
}

bool PcapHandle::refill_batch() {
  release_batch();
  if (engine_.try_next_batch(queue_, kBatchPackets, batch_) == 0) return false;
  if (batch_hook_) {
    // Pipeline pushdown: stages run before the handle's filter and may
    // compact the batch in place (possibly to zero views — the caller's
    // read loop then refills again, releasing the refs on the way).
    batch_hook_(batch_);
  }
  if (filter_) {
    // One pre-decoded pass over the whole batch.
    static_cast<void>(filter_->run_batch(batch_, accepts_));
  } else {
    accepts_.assign(batch_.size(), kMatched);
  }
  cursor_ = 0;
  return true;
}

const engines::CaptureView* PcapHandle::advance_to_match() {
  for (;;) {
    if (cursor_ >= batch_.size()) {
      if (!refill_batch()) return nullptr;
    }
    while (cursor_ < batch_.size()) {
      if (accepts_[cursor_] != kFiltered) {
        return &batch_.views[cursor_];
      }
      ++filtered_out_;  // consumed by the "kernel" filter
      ++cursor_;
    }
  }
}

void PcapHandle::deliver(const engines::CaptureView& view,
                         const Handler& handler) {
  PacketHeader header;
  header.ts_ns = view.timestamp.count();
  header.caplen = static_cast<std::uint32_t>(view.bytes.size());
  header.len = view.wire_len;
  in_flight_ = &view;
  injected_ = false;
  handler(header, view.bytes);
  if (injected_) {
    accepts_[cursor_] = kInjected;
    ++injected_in_batch_;
    // forward() consumed this view's release; keep the batch's refs in
    // step so release_batch() does not release it again.
    batch_.note_released(view.handle);
  }
  in_flight_ = nullptr;
  ++matched_;
  ++cursor_;
}

int PcapHandle::dispatch(int count, const Handler& handler) {
  int handled = 0;
  while ((count <= 0 || handled < count) && !break_) {
    const engines::CaptureView* view = advance_to_match();
    if (view == nullptr) break;
    deliver(*view, handler);
    ++handled;
  }
  return handled;
}

int PcapHandle::loop(int count, const Handler& handler) {
  int handled = 0;
  while ((count <= 0 || handled < count) && !break_) {
    const engines::CaptureView* view = advance_to_match();
    if (view != nullptr) {
      deliver(*view, handler);
      ++handled;
      continue;
    }
    // Nothing available: advance the simulation (the "blocking wait").
    if (!scheduler_.step()) break;  // simulation exhausted
  }
  return break_ ? -2 : handled;
}

int PcapHandle::next_ex(PacketHeader& header,
                        std::span<const std::byte>& data) {
  const engines::CaptureView* view = advance_to_match();
  if (view == nullptr) return 0;
  header.ts_ns = view->timestamp.count();
  header.caplen = static_cast<std::uint32_t>(view->bytes.size());
  header.len = view->wire_len;
  data = view->bytes;
  ++matched_;
  ++cursor_;  // the view stays alive until the batch is recycled
  return 1;
}

int PcapHandle::inject(nic::MultiQueueNic& out_nic, std::uint32_t tx_queue) {
  if (in_flight_ == nullptr) return -1;
  const auto bytes = static_cast<int>(in_flight_->bytes.size());
  if (!engine_.forward(queue_, *in_flight_, out_nic, tx_queue)) return -1;
  injected_ = true;
  return bytes;
}

Stats PcapHandle::stats() const {
  Stats stats;
  stats.ps_recv = matched_ + filtered_out_;
  const auto engine_stats = engine_.queue_stats(queue_);
  stats.ps_drop = engine_stats.delivery_dropped;
  stats.ps_ifdrop = nic_.rx_stats(queue_).dropped;
  return stats;
}

}  // namespace wirecap::pcap
