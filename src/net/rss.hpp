// Toeplitz hash — the receive-side-scaling (RSS) function implemented by
// the Intel 82599 and most other multi-queue NICs.  The NIC computes
// this hash over the IPv4 5-tuple fields of each incoming packet and
// uses (hash mod queues) / an indirection table to pick the receive
// queue, which is exactly what keeps all packets of one flow on one
// core — and what produces the load imbalance the paper studies.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "net/flow.hpp"
#include "net/headers.hpp"

namespace wirecap::net {

/// The 40-byte Microsoft/Intel default RSS key (the "well-known" key
/// shipped in the 82599 datasheet and countless drivers).
inline constexpr std::array<std::uint8_t, 40> kDefaultRssKey = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa};

/// Computes the Toeplitz hash of `input` under `key`, one key-window XOR
/// per set input bit.  `input` is the concatenated big-endian tuple
/// fields.  This is the bit-serial reference definition; the rss_hash
/// helpers below compute the same function from a per-byte table.
[[nodiscard]] std::uint32_t toeplitz_hash(std::span<const std::uint8_t> input,
                                          std::span<const std::uint8_t> key);

/// RSS hash under kDefaultRssKey of an IPv4 TCP/UDP 4-tuple + addresses
/// as the 82599 computes it for "IPv4 with L4" packet types: src ip, dst
/// ip, src port, dst port, all big-endian.  For protocols without ports
/// the NIC hashes the addresses only; this helper does the same when
/// proto is not TCP/UDP.  Table-driven: one lookup per input byte.
[[nodiscard]] std::uint32_t rss_hash(const FlowKey& flow);

/// RSS hash under kDefaultRssKey of an IPv6 TCP/UDP tuple ("IPv6 with
/// L4" packet type): the concatenated 16-byte source and destination
/// addresses followed by the ports.  With `with_ports == false`,
/// addresses only.
[[nodiscard]] std::uint32_t rss_hash_ipv6(const Ipv6Addr& src,
                                          const Ipv6Addr& dst,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          bool with_ports = true);

/// Size of the RSS indirection table (RETA); 128 entries on the 82599.
inline constexpr std::uint32_t kRssRetaSize = 128;

/// Receive queue selected for `flow` when the NIC is configured with
/// `num_queues` queues and the default round-robin-populated indirection
/// table (RETA[i] = i mod num_queues), as drivers initialize it.
[[nodiscard]] inline std::uint32_t rss_queue(const FlowKey& flow,
                                             std::uint32_t num_queues) {
  const std::uint32_t index = rss_hash(flow) & (kRssRetaSize - 1);
  return index % num_queues;
}

}  // namespace wirecap::net
