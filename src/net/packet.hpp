// The packet value type that travels through the simulated wire, NIC and
// capture engines.
//
// A WirePacket carries its arrival timestamp, wire length, parsed flow
// key (used by the NIC steering hardware model) and the leading bytes of
// the frame (headers + start of payload, up to kSnapBytes).  The DMA
// model copies these bytes into ring-buffer cells, so BPF filters and
// forwarding code operate on real frame bytes; bodies beyond the snap
// length are accounted for by wire_len but not materialized, keeping
// multi-million-packet experiments cheap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/units.hpp"
#include "net/flow.hpp"
#include "net/headers.hpp"

namespace wirecap::net {

class WirePacket {
 public:
  /// Bytes of the frame that are materialized.  64 covers the whole
  /// minimum-size frame and all headers of larger ones.
  static constexpr std::size_t kSnapBytes = 64;

  WirePacket() = default;

  /// Builds a real frame for `flow` of `wire_len` bytes (excluding FCS)
  /// arriving at `timestamp`.
  static WirePacket make(Nanos timestamp, const FlowKey& flow,
                         std::uint32_t wire_len, std::uint64_t seq = 0,
                         std::uint16_t ip_id = 0);

  /// Constructs from existing frame bytes (trace/pcap replay).
  static WirePacket from_bytes(Nanos timestamp,
                               std::span<const std::byte> frame,
                               std::uint32_t wire_len, std::uint64_t seq = 0);

  [[nodiscard]] Nanos timestamp() const { return timestamp_; }

  /// Full length of the frame on the wire (excluding FCS/preamble).
  [[nodiscard]] std::uint32_t wire_len() const { return wire_len_; }

  /// Number of materialized bytes (min(wire_len, kSnapBytes)).
  [[nodiscard]] std::uint32_t snap_len() const { return snap_len_; }

  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data_.data(), snap_len_};
  }
  [[nodiscard]] std::span<std::byte> mutable_bytes() {
    return {data_.data(), snap_len_};
  }

  [[nodiscard]] const FlowKey& flow() const { return flow_; }

  /// Monotone sequence number assigned by the generator; used to verify
  /// conservation (sent == delivered + dropped) and FIFO per flow.
  [[nodiscard]] std::uint64_t seq() const { return seq_; }

 private:
  Nanos timestamp_{};
  std::uint32_t wire_len_ = 0;
  std::uint32_t snap_len_ = 0;
  std::uint64_t seq_ = 0;
  FlowKey flow_{};
  std::array<std::byte, kSnapBytes> data_{};
};

}  // namespace wirecap::net
