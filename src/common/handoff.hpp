// Shared vocabulary of the chunk-handoff layer: how a push can end,
// what it reports, and how an overloaded queue picks an offload target.
//
// `PushResult` exists because a bool cannot distinguish "the queue is
// full" (backpressure: park the chunk and retry) from "the queue is
// closed" (the consumer is gone: fall home / recycle immediately).
// Conflating the two made WirecapEngine::dispatch park chunks destined
// for a closed target in `pending` as if backpressure would clear.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wirecap {

/// Outcome class of a non-blocking push onto a bounded queue.
enum class PushResult : std::uint8_t {
  kOk,      ///< accepted
  kFull,    ///< rejected: at capacity (backpressure — retry later)
  kClosed,  ///< rejected: closed (permanent — do not retry)
};

/// Result of a push together with the queue depth observed at the push
/// itself.  For mutex-protected queues `depth` is exact (it is read
/// under the same lock that committed the push); for lock-free rings it
/// is a true instantaneous sample taken immediately after publication,
/// and always includes the pushed element.  Recording high-water marks
/// from `depth` cannot miss the push that set them — unlike a separate
/// size() call racing concurrent consumers.
struct PushOutcome {
  PushResult result = PushResult::kOk;
  std::size_t depth = 0;

  [[nodiscard]] constexpr bool ok() const { return result == PushResult::kOk; }
};

/// How an overloaded capture thread picks the buddy to offload to.
/// The paper's design targets "an idle or less busy receive queue"
/// (least-busy); the alternatives exist for the ablation benchmarks.
/// Lives here (not in core) so the engines-layer config and the
/// per-tenant TenantSpec can carry it without linking core.
enum class OffloadPolicy : std::uint8_t {
  kLeastBusy,    // shortest buddy capture queue (the paper's policy)
  kRandomBuddy,  // uniform random buddy
  kRoundRobin,   // cycle through buddies
};

[[nodiscard]] constexpr const char* to_string(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kLeastBusy: return "least-busy";
    case OffloadPolicy::kRandomBuddy: return "random";
    case OffloadPolicy::kRoundRobin: return "round-robin";
  }
  return "least-busy";
}

// CLI-boundary parser.  Engine configs carry the enum; only argv
// handling converts strings, and an unknown value fails fast with the
// allowed set spelled out.

[[nodiscard]] inline OffloadPolicy parse_offload_policy(
    std::string_view text) {
  if (text == "least-busy") return OffloadPolicy::kLeastBusy;
  if (text == "random") return OffloadPolicy::kRandomBuddy;
  if (text == "round-robin") return OffloadPolicy::kRoundRobin;
  throw std::invalid_argument("unknown offload policy \"" +
                              std::string(text) +
                              "\" (allowed: least-busy, random, round-robin)");
}

}  // namespace wirecap
