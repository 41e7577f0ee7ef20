// Shared vocabulary of the chunk-handoff layer: how a push can end and
// what it reports.
//
// `PushResult` exists because a bool cannot distinguish "the queue is
// full" (backpressure: park the chunk and retry) from "the queue is
// closed" (the consumer is gone: fall home / recycle immediately).
// Conflating the two made WirecapEngine::dispatch park chunks destined
// for a closed target in `pending` as if backpressure would clear.
#pragma once

#include <cstddef>
#include <cstdint>

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

}  // namespace wirecap
