// Zero-copy fan-out of one capture stream to multiple subscribers.
//
// FanOut is a pipeline terminal: offer() takes one delivered batch and
// steers its views to N subscribers — broadcast (everyone sees every
// packet), flow-hash partitioning (a flow's packets always land on the
// same subscriber), or per-subscriber BPF match.  The packet bytes are
// never copied: every subscriber's SharedBatch aliases the same capture
// chunk, and the chunk recycles only after the LAST subscriber releases.
//
// Two refcounting modes, picked per batch:
//
//  * Engine-share mode (engines with supports_batch_shares(), i.e.
//    WireCAP): offer() grants one extra release share per receiving
//    subscriber via add_batch_shares(), hands each subscriber a copy of
//    the batch's refs, and releases the original immediately.  Each
//    subscriber then releases *independently* through the normal
//    done_batch() path — the engine's per-chunk refcount (mirrored into
//    the ring-buffer-pool's share counts, audited by the lifecycle
//    auditor) fires the recycle on the last one.  Nothing is held in
//    the FanOut; subscribers may outlive it in any order.
//
//  * Slot fallback (baseline engines): the FanOut parks the original
//    batch in a slot with a pending-release count; subscribers' batches
//    carry no refs, and the last SharedBatch release triggers the one
//    real done_batch().  Semantically identical, but the release
//    funnels through the FanOut.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bpf/insn.hpp"
#include "bpf/predecode.hpp"
#include "engines/engine.hpp"
#include "engines/packet_view.hpp"
#include "telemetry/telemetry.hpp"

namespace wirecap::pipeline {

class FanOut;

/// How offer() assigns views to subscribers.
enum class Steering : std::uint8_t {
  /// Every subscriber receives every packet (IDS + flow stats + spool
  /// all observing the same stream).
  kBroadcast,
  /// Each packet goes to exactly one subscriber by FlowKey::mix() %
  /// subscriber-count (seq-based fallback for unparseable packets), so
  /// per-flow state never splits across subscribers.
  kFlowHash,
  /// Each subscriber receives the packets matching its BPF program
  /// (subscribers without a program match everything).  Packets
  /// matching no subscriber are released immediately.
  kBpfMatch,
};

/// A subscriber's view of one fanned-out batch: a move-only release
/// handle whose views alias the capture chunk (zero-copy).  Releasing
/// (explicitly or via destruction) drops this subscriber's reference;
/// the chunk recycles when the last reference across all subscribers is
/// gone.  A SharedBatch may be moved into longer-lived storage to
/// retain the chunk beyond the handler call.
class SharedBatch {
 public:
  SharedBatch() = default;
  SharedBatch(SharedBatch&& other) noexcept { *this = std::move(other); }
  SharedBatch& operator=(SharedBatch&& other) noexcept;
  SharedBatch(const SharedBatch&) = delete;
  SharedBatch& operator=(const SharedBatch&) = delete;
  ~SharedBatch() { release(); }

  [[nodiscard]] engines::PacketBatch& batch() { return batch_; }
  [[nodiscard]] const engines::PacketBatch& batch() const { return batch_; }
  [[nodiscard]] std::uint32_t queue() const { return queue_; }
  [[nodiscard]] bool holds() const { return owner_ != nullptr; }

  /// Drops this subscriber's reference (idempotent).
  void release();

 private:
  friend class FanOut;
  SharedBatch(FanOut* owner, std::uint32_t queue, std::uint64_t slot)
      : owner_(owner), queue_(queue), slot_(slot) {}

  FanOut* owner_ = nullptr;
  std::uint32_t queue_ = 0;
  /// 0 = engine-share mode (batch_.refs carry the release); otherwise
  /// the slot id holding the original batch in the FanOut.
  std::uint64_t slot_ = 0;
  engines::PacketBatch batch_;
};

struct Subscriber {
  std::string name;
  /// Receives this subscriber's share of each batch.  The handler owns
  /// the SharedBatch: dropping it releases, moving it out retains.
  std::function<void(SharedBatch)> handler;
  /// Steering::kBpfMatch only; nullopt matches everything.
  std::optional<bpf::Program> match;
};

struct SubscriberStats {
  std::uint64_t batches = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  // wire bytes steered to this subscriber
};

class FanOut {
 public:
  FanOut(engines::CaptureEngine& engine, Steering steering);

  /// Registers a subscriber; returns its index.  Must be called before
  /// the first offer().
  std::size_t subscribe(Subscriber subscriber);

  /// Steers one delivered batch to the subscribers and releases
  /// whatever they do not take.  Consumes the batch: the caller must
  /// not touch it (beyond clear()) afterwards, and must NOT call
  /// done_batch() on it — release is the FanOut's job from here on.
  /// Throws std::logic_error, before steering, on a batch with views but
  /// no refs (done_batch() could never release it).
  void offer(std::uint32_t queue, engines::PacketBatch&& batch);

  [[nodiscard]] std::size_t subscriber_count() const { return subs_.size(); }
  [[nodiscard]] Steering steering() const { return steering_; }
  [[nodiscard]] bool uses_engine_shares() const {
    return engine_.supports_batch_shares();
  }
  [[nodiscard]] const SubscriberStats& subscriber_stats(std::size_t i) const {
    return subs_[i].stats;
  }

  [[nodiscard]] std::uint64_t offers() const { return offers_; }
  /// Batches no subscriber wanted (released straight back).
  [[nodiscard]] std::uint64_t unclaimed() const { return unclaimed_; }
  /// SharedBatch releases seen so far.
  [[nodiscard]] std::uint64_t releases() const { return releases_; }
  /// Extra release shares granted through the engine.
  [[nodiscard]] std::uint64_t shares_granted() const {
    return shares_granted_;
  }
  /// Slot-mode batches currently awaiting their last release.
  [[nodiscard]] std::size_t slots_in_flight() const { return slots_.size(); }

  /// Registers `<prefix>.{offers,unclaimed,releases,shares_granted}` and
  /// `<prefix>.sub.<name>.{batches,packets,bytes}`.
  void bind_telemetry(telemetry::Telemetry& telemetry,
                      const std::string& prefix) const;

 private:
  struct Sub {
    Subscriber config;
    std::optional<bpf::Predecoded> matcher;  // pre-decoded config.match
    SubscriberStats stats;
  };
  struct Slot {
    engines::PacketBatch original;
    std::uint32_t queue = 0;
    std::uint32_t remaining = 0;  // SharedBatch releases still pending
  };

  friend class SharedBatch;
  void release_shared(SharedBatch& shared);
  static void note_delivery(Sub& sub, const engines::PacketBatch& batch);

  engines::CaptureEngine& engine_;
  Steering steering_;
  std::vector<Sub> subs_;
  /// Per-subscriber steering scratch, reused across offers.
  std::vector<std::vector<engines::CaptureView>> scratch_;
  std::vector<std::uint8_t> accepts_;  // kBpfMatch scratch
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::uint64_t next_slot_ = 1;  // 0 is the engine-share sentinel
  std::uint64_t offers_ = 0;
  std::uint64_t unclaimed_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t shares_granted_ = 0;
};

}  // namespace wirecap::pipeline
