#include "store/store_sink.hpp"

namespace wirecap::store {

StoreSink::StoreSink(engines::CaptureEngine& engine, std::uint32_t queue,
                     SpoolShard& shard)
    : engine_(engine), queue_(queue), shard_(shard) {}

void StoreSink::start() {
  engine_.set_data_callback(queue_, [this] { poll(); });
  shard_.set_drain_callback([this] { poll(); });
  poll();
}

void StoreSink::poll() {
  for (;;) {
    if (shard_.policy() == BackpressurePolicy::kBlock &&
        !shard_.accepting()) {
      // Leave chunks in the capture queue; the drain callback re-wakes
      // us, and meanwhile the engine's offload feedback sees the depth.
      return;
    }
    auto chunk = engine_.try_next_chunk(queue_);
    if (!chunk) return;
    packets_consumed_ += chunk->packets.size();
    shard_.offer(std::move(*chunk),
                 [this](const engines::ChunkCaptureView& done) {
                   engine_.done_chunk(queue_, done);
                 });
  }
}

}  // namespace wirecap::store
