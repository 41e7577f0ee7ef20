// The glue actor between one engine queue and one spool shard.
//
// A StoreSink wakes on the engine's data callback, pops whole chunks
// with try_next_chunk(), and offers them to its shard; the shard's
// release path hands them back to the engine (done_chunk) once the
// packets are on disk or dropped.  Under the kBlock policy the sink
// gates on shard.accepting(): un-consumed chunks back up in the
// engine's capture queue, where the registered spool-backlog probe and
// the queue depth together trip the buddy-group offload threshold T —
// the lossless feedback path.
#pragma once

#include <cstdint>

#include "engines/engine.hpp"
#include "store/spool.hpp"

namespace wirecap::store {

class StoreSink {
 public:
  /// Does not register callbacks yet — call start() once the engine
  /// queue is open.  The sink must outlive every chunk the shard still
  /// holds (i.e. close the spool before destroying sinks).
  StoreSink(engines::CaptureEngine& engine, std::uint32_t queue,
            SpoolShard& shard);

  StoreSink(const StoreSink&) = delete;
  StoreSink& operator=(const StoreSink&) = delete;

  /// Registers the engine data callback and the shard drain callback,
  /// then drains whatever is already queued.
  void start();

  /// Consumes until the engine is empty or (kBlock) the shard is full.
  void poll();

  [[nodiscard]] std::uint64_t packets_consumed() const {
    return packets_consumed_;
  }

 private:
  engines::CaptureEngine& engine_;
  std::uint32_t queue_;
  SpoolShard& shard_;
  std::uint64_t packets_consumed_ = 0;
};

}  // namespace wirecap::store
