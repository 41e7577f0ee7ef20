#include "net/rss.hpp"

#include <bit>
#include <stdexcept>

namespace wirecap::net {

namespace {

/// Longest RSS input: the IPv6 tuple (two 16-byte addresses, two ports).
constexpr std::size_t kMaxRssInput = 36;

/// kRssTable[i][v] is the Toeplitz contribution of byte value `v` at
/// input position `i` under kDefaultRssKey: the XOR of the 32-bit key
/// windows of v's set bits.  The hash of an input is then one lookup and
/// one XOR per byte instead of one conditional XOR and shift per bit.
using RssTable = std::array<std::array<std::uint32_t, 256>, kMaxRssInput>;

/// The 32 key bits starting at bit offset `bit`, most significant first —
/// the window toeplitz_hash XORs in for an input bit at that offset.
constexpr std::uint32_t key_window(std::size_t bit) {
  std::uint32_t window = 0;
  for (std::size_t b = bit; b < bit + 32; ++b) {
    const std::uint32_t key_bit =
        (std::uint32_t{kDefaultRssKey[b / 8]} >> (7 - b % 8)) & 1u;
    window = (window << 1) | key_bit;
  }
  return window;
}

constexpr RssTable make_rss_table() {
  static_assert(kDefaultRssKey.size() >= kMaxRssInput + 4);
  RssTable table{};
  for (std::size_t i = 0; i < kMaxRssInput; ++i) {
    // Windows of the byte's bits, index 0 = least significant bit.
    std::array<std::uint32_t, 8> bit_window{};
    for (std::size_t b = 0; b < 8; ++b) bit_window[b] = key_window(i * 8 + 7 - b);
    // Each entry extends a smaller one by its lowest set bit.
    for (std::uint32_t v = 1; v < 256; ++v) {
      const auto low = static_cast<std::size_t>(std::countr_zero(v));
      table[i][v] = table[i][v & (v - 1)] ^ bit_window[low];
    }
  }
  return table;
}

constexpr RssTable kRssTable = make_rss_table();

std::uint32_t table_hash(std::span<const std::uint8_t> input) {
  std::uint32_t result = 0;
  for (std::size_t i = 0; i < input.size(); ++i) result ^= kRssTable[i][input[i]];
  return result;
}

}  // namespace

std::uint32_t toeplitz_hash(std::span<const std::uint8_t> input,
                            std::span<const std::uint8_t> key) {
  if (key.size() < input.size() + 4) {
    throw std::invalid_argument(
        "toeplitz_hash: key must exceed input length by at least 32 bits");
  }
  std::uint32_t result = 0;
  // The sliding 32-bit window over the key, advanced one bit per input
  // bit.  Initialize with the first 32 key bits.
  std::uint32_t window = (static_cast<std::uint32_t>(key[0]) << 24) |
                         (static_cast<std::uint32_t>(key[1]) << 16) |
                         (static_cast<std::uint32_t>(key[2]) << 8) |
                         static_cast<std::uint32_t>(key[3]);
  std::size_t next_key_byte = 4;
  std::uint8_t pending = 0;
  int pending_bits = 0;

  for (const std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) result ^= window;
      // Shift the window left one bit, pulling the next key bit in.
      if (pending_bits == 0) {
        pending = next_key_byte < key.size() ? key[next_key_byte] : 0;
        ++next_key_byte;
        pending_bits = 8;
      }
      window = (window << 1) | ((pending >> 7) & 1);
      pending = static_cast<std::uint8_t>(pending << 1);
      --pending_bits;
    }
  }
  return result;
}

std::uint32_t rss_hash(const FlowKey& flow) {
  std::array<std::uint8_t, 12> input{};
  const auto put32 = [&](std::size_t off, std::uint32_t v) {
    input[off] = static_cast<std::uint8_t>(v >> 24);
    input[off + 1] = static_cast<std::uint8_t>(v >> 16);
    input[off + 2] = static_cast<std::uint8_t>(v >> 8);
    input[off + 3] = static_cast<std::uint8_t>(v);
  };
  put32(0, flow.src_ip.value());
  put32(4, flow.dst_ip.value());
  const bool has_ports =
      flow.proto == IpProto::kTcp || flow.proto == IpProto::kUdp;
  if (has_ports) {
    input[8] = static_cast<std::uint8_t>(flow.src_port >> 8);
    input[9] = static_cast<std::uint8_t>(flow.src_port);
    input[10] = static_cast<std::uint8_t>(flow.dst_port >> 8);
    input[11] = static_cast<std::uint8_t>(flow.dst_port);
    return table_hash(input);
  }
  return table_hash(std::span<const std::uint8_t>{input.data(), 8});
}

std::uint32_t rss_hash_ipv6(const Ipv6Addr& src, const Ipv6Addr& dst,
                            std::uint16_t src_port, std::uint16_t dst_port,
                            bool with_ports) {
  std::array<std::uint8_t, kMaxRssInput> input{};
  for (std::size_t i = 0; i < 16; ++i) {
    input[i] = src.octets[i];
    input[16 + i] = dst.octets[i];
  }
  if (!with_ports) {
    return table_hash(std::span<const std::uint8_t>{input.data(), 32});
  }
  input[32] = static_cast<std::uint8_t>(src_port >> 8);
  input[33] = static_cast<std::uint8_t>(src_port);
  input[34] = static_cast<std::uint8_t>(dst_port >> 8);
  input[35] = static_cast<std::uint8_t>(dst_port);
  return table_hash(input);
}

}  // namespace wirecap::net
