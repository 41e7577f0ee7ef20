// Receive/transmit descriptors — the software model of the 82599's
// descriptor format.
//
// A receive descriptor in the ready state points at an empty host
// buffer; the NIC DMA-writes the frame into the buffer and writes back
// completion metadata (length, timestamp).  A descriptor without an
// attached buffer cannot receive: "incoming packets will be dropped if
// the receive descriptors in the ready state aren't available."
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/units.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"

namespace wirecap::nic {

/// Host memory the NIC may DMA into/out of.  The driver guarantees the
/// span stays valid while attached (in the real system this is the
/// IOMMU-mapped DMA address).
struct DmaBuffer {
  std::span<std::byte> data{};
  /// Opaque driver cookie identifying the backing cell (e.g. which
  /// chunk/cell of a ring buffer pool); returned to the driver on
  /// consume so it can track buffer ownership.
  std::uint64_t cookie = 0;

  [[nodiscard]] bool valid() const { return !data.empty(); }
};

/// Bytes of host memory that back a simulated DMA buffer modelled as
/// `buffer_size` bytes.  The DMA copies min(snap, buffer) bytes and a
/// WirePacket materializes at most kSnapBytes, so nothing is ever
/// written past this prefix; allocating (and zeroing) the rest of a
/// 2 KB buffer only costs memory traffic.  Capacity and cost accounting
/// keep using `buffer_size`.
[[nodiscard]] constexpr std::uint32_t materialized_bytes(
    std::uint32_t buffer_size) {
  return std::min(buffer_size,
                  static_cast<std::uint32_t>(net::WirePacket::kSnapBytes));
}

enum class RxDescState : std::uint8_t {
  kEmpty,     // no buffer attached; cannot receive
  kReady,     // buffer attached, awaiting a packet
  kDmaInFlight,  // NIC is writing a frame into the buffer
  kFilled,    // frame written; awaiting driver consumption
};

/// Completion metadata the NIC writes back into the descriptor.
struct RxWriteback {
  std::uint32_t length = 0;      // captured bytes written to the buffer
  std::uint32_t wire_length = 0; // original frame length on the wire
  Nanos timestamp{};             // arrival time (hardware timestamp)
  std::uint64_t seq = 0;         // generator sequence (simulation aid for
                                 // conservation checks; not on real HW)
  net::FlowKey flow{};           // parsed by the NIC's RSS logic
};

struct RxDescriptor {
  RxDescState state = RxDescState::kEmpty;
  DmaBuffer buffer{};
  RxWriteback writeback{};
};

/// A transmit request: the frame to send and a completion callback fired
/// when the NIC has finished transmitting (the driver then releases or
/// recycles the buffer — zero-copy forwarding keeps the packet in the
/// ring-buffer-pool cell until this fires).
struct TxRequest {
  std::span<const std::byte> frame{};
  std::uint32_t wire_length = 0;
  std::uint64_t seq = 0;
  net::FlowKey flow{};
  std::function<void()> on_complete{};
};

}  // namespace wirecap::nic
