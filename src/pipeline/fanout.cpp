#include "pipeline/fanout.hpp"

#include <stdexcept>
#include <utility>

#include "net/headers.hpp"

namespace wirecap::pipeline {

SharedBatch& SharedBatch::operator=(SharedBatch&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = std::exchange(other.owner_, nullptr);
    queue_ = other.queue_;
    slot_ = other.slot_;
    batch_ = std::move(other.batch_);
  }
  return *this;
}

void SharedBatch::release() {
  if (owner_ == nullptr) return;
  FanOut* owner = std::exchange(owner_, nullptr);
  owner->release_shared(*this);
  batch_.clear();
}

FanOut::FanOut(engines::CaptureEngine& engine, Steering steering)
    : engine_(engine), steering_(steering) {}

std::size_t FanOut::subscribe(Subscriber subscriber) {
  if (!subscriber.handler) {
    throw std::invalid_argument("FanOut::subscribe: handler is required");
  }
  Sub sub;
  if (subscriber.match) sub.matcher.emplace(*subscriber.match);
  sub.config = std::move(subscriber);
  subs_.push_back(std::move(sub));
  scratch_.emplace_back();
  return subs_.size() - 1;
}

void FanOut::offer(std::uint32_t queue, engines::PacketBatch&& batch) {
  if (batch.refs.empty() && !batch.views.empty()) {
    // Rejected before any subscriber holds a piece, whose release would
    // otherwise throw from a SharedBatch destructor.
    throw std::logic_error("FanOut::offer: batch has views but no refs");
  }
  ++offers_;
  const std::size_t nsubs = subs_.size();
  for (std::vector<engines::CaptureView>& views : scratch_) views.clear();

  if (!batch.views.empty()) {
    switch (steering_) {
      case Steering::kBroadcast:
        for (std::size_t i = 0; i < nsubs; ++i) {
          scratch_[i].assign(batch.views.begin(), batch.views.end());
        }
        break;
      case Steering::kFlowHash:
        for (const engines::CaptureView& view : batch.views) {
          const std::optional<net::FlowKey> flow =
              net::parse_flow(view.bytes);
          const std::uint64_t key = flow ? flow->mix() : view.seq;
          scratch_[key % nsubs].push_back(view);
        }
        break;
      case Steering::kBpfMatch:
        for (std::size_t i = 0; i < nsubs; ++i) {
          if (!subs_[i].matcher) {
            scratch_[i].assign(batch.views.begin(), batch.views.end());
            continue;
          }
          subs_[i].matcher->run_batch(batch, accepts_);
          for (std::size_t v = 0; v < batch.views.size(); ++v) {
            if (accepts_[v] != 0) scratch_[i].push_back(batch.views[v]);
          }
        }
        break;
    }
  }

  std::uint32_t receivers = 0;
  for (const std::vector<engines::CaptureView>& views : scratch_) {
    if (!views.empty()) ++receivers;
  }

  if (receivers == 0) {
    // Nobody wants it (or the pipeline compacted it away): settle the
    // batch's release obligations right here.
    ++unclaimed_;
    engine_.done_batch(queue, batch);
    batch.clear();
    return;
  }

  if (engine_.supports_batch_shares()) {
    // Engine-share mode: grant one extra full release per receiving
    // subscriber BEFORE any SharedBatch exists, so a handler releasing
    // synchronously can never drop the chunk refcount to zero early.
    engine_.add_batch_shares(queue, batch, receivers);
    shares_granted_ += receivers;
    for (std::size_t i = 0; i < nsubs; ++i) {
      if (scratch_[i].empty()) continue;
      SharedBatch shared(this, queue, /*slot=*/0);
      shared.batch_.views = std::move(scratch_[i]);
      shared.batch_.refs = batch.refs;  // a full release obligation each
      shared.batch_.source_ring = batch.source_ring;
      note_delivery(subs_[i], shared.batch_);
      subs_[i].config.handler(std::move(shared));
    }
    // The original's own release obligation is still ours.
    engine_.done_batch(queue, batch);
    batch.clear();
    return;
  }

  // Slot fallback: park the original, count pending releases, hand out
  // refs-free view batches.  The last release fires the real
  // done_batch().
  const std::uint64_t slot_id = next_slot_++;
  const std::uint32_t source_ring = batch.source_ring;
  Slot& slot = slots_[slot_id];
  slot.original = std::move(batch);
  slot.queue = queue;
  slot.remaining = receivers;
  for (std::size_t i = 0; i < nsubs; ++i) {
    if (scratch_[i].empty()) continue;
    SharedBatch shared(this, queue, slot_id);
    shared.batch_.views = std::move(scratch_[i]);
    shared.batch_.source_ring = source_ring;
    note_delivery(subs_[i], shared.batch_);
    subs_[i].config.handler(std::move(shared));
  }
}

void FanOut::release_shared(SharedBatch& shared) {
  ++releases_;
  if (shared.slot_ == 0) {
    engine_.done_batch(shared.queue_, shared.batch_);
    return;
  }
  const auto it = slots_.find(shared.slot_);
  if (it == slots_.end() || it->second.remaining == 0) {
    throw std::logic_error("FanOut: release of an unknown fan-out slot");
  }
  if (--it->second.remaining == 0) {
    engine_.done_batch(it->second.queue, it->second.original);
    slots_.erase(it);
  }
}

void FanOut::note_delivery(Sub& sub, const engines::PacketBatch& batch) {
  ++sub.stats.batches;
  sub.stats.packets += batch.views.size();
  for (const engines::CaptureView& view : batch.views) {
    sub.stats.bytes += view.wire_len;
  }
}

void FanOut::bind_telemetry(telemetry::Telemetry& telemetry,
                            const std::string& prefix) const {
  telemetry.registry.bind_counter(prefix + ".offers",
                                  [this] { return offers_; });
  telemetry.registry.bind_counter(prefix + ".unclaimed",
                                  [this] { return unclaimed_; });
  telemetry.registry.bind_counter(prefix + ".releases",
                                  [this] { return releases_; });
  telemetry.registry.bind_counter(prefix + ".shares_granted",
                                  [this] { return shares_granted_; });
  for (const Sub& sub : subs_) {
    const std::string stem = prefix + ".sub." + sub.config.name;
    const Sub* s = &sub;
    telemetry.registry.bind_counter(stem + ".batches",
                                    [s] { return s->stats.batches; });
    telemetry.registry.bind_counter(stem + ".packets",
                                    [s] { return s->stats.packets; });
    telemetry.registry.bind_counter(stem + ".bytes",
                                    [s] { return s->stats.bytes; });
  }
}

}  // namespace wirecap::pipeline
