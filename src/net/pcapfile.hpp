// Classic libpcap savefile (.pcap) reader and writer, implemented from
// the format specification (no libpcap dependency).  Supports the
// microsecond (0xA1B2C3D4) and nanosecond (0xA1B23C4D) magics in either
// byte order, linktype EN10MB.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "net/packet.hpp"

namespace wirecap::net {

inline constexpr std::uint32_t kPcapMagicMicros = 0xA1B2C3D4;
inline constexpr std::uint32_t kPcapMagicNanos = 0xA1B23C4D;
inline constexpr std::uint32_t kLinktypeEthernet = 1;

struct PcapRecord {
  Nanos timestamp;            // relative to the epoch stored in the file
  std::uint32_t orig_len = 0; // length on the wire
  std::vector<std::byte> data;
};

/// Streaming pcap writer.
class PcapWriter {
 public:
  /// Creates/truncates `path`.  Nanosecond-resolution magic is written by
  /// default (the sim clock is nanoseconds).
  explicit PcapWriter(const std::filesystem::path& path,
                      std::uint32_t snaplen = 65535, bool nanosecond = true);

  /// Flushes any buffered tail bytes; errors are swallowed (use close()
  /// to observe them).
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Appends one record; `timestamp` is seconds.nanos since file epoch.
  void write(Nanos timestamp, std::span<const std::byte> data,
             std::uint32_t orig_len);

  /// Convenience for simulated packets.
  void write(const WirePacket& packet) {
    write(packet.timestamp(), packet.bytes(), packet.wire_len());
  }

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

  void flush();
  /// Flushes and closes the underlying stream, throwing on failure.
  /// Idempotent; further write() calls throw.
  void close();

 private:
  std::ofstream out_;
  bool nanosecond_;
  std::uint64_t records_ = 0;
};

/// Streaming pcap reader.
class PcapReader {
 public:
  explicit PcapReader(const std::filesystem::path& path);

  /// Reads the next record; nullopt at end of file.  Throws
  /// std::runtime_error on a corrupt file.
  std::optional<PcapRecord> next();

  /// Reads everything remaining.
  std::vector<PcapRecord> read_all();

  [[nodiscard]] bool nanosecond() const { return nanosecond_; }
  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }

 private:
  [[nodiscard]] std::uint32_t fix32(std::uint32_t v) const;
  [[nodiscard]] std::uint16_t fix16(std::uint16_t v) const;

  std::ifstream in_;
  bool nanosecond_ = false;
  bool swapped_ = false;
  std::uint32_t snaplen_ = 0;
  std::uint32_t linktype_ = 0;
};

}  // namespace wirecap::net
