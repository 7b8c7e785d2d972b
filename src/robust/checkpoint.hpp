// Checkpoint framing for crash-safe ingestion.
//
// A daily-update deployment (paper 9) must survive a crash at any day
// boundary without re-reading 17 years of archive. The restoration pipeline
// serializes its streaming state through these primitives: a little-endian
// byte writer/reader pair plus a self-describing frame
//
//   magic PLCK | version:u32 | payload-length:u64 | payload | crc32(payload)
//
// so a torn write, a flipped bit, or a blob from an incompatible build is
// detected on resume instead of silently corrupting the timeline. The
// encoding layer is deliberately schema-free (the restorer owns its schema);
// this module only guarantees integrity and bounded reads. Every file of
// frames (snapshot, WAL, history) is walked with the one `frame_length`
// scanner below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace pl::robust {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Length of the whole frame (header + payload + CRC) at the front of
/// `bytes`, or nullopt when no whole frame starts there: too short for a
/// header, no magic, or a payload length that runs past the end (a torn
/// write). Only the boundary is checked; version and CRC are the reader's.
std::optional<std::size_t> frame_length(std::string_view bytes) noexcept;

/// Read a whole file of frames. kNotFound when `path` does not exist,
/// kUnavailable when it cannot be read.
pl::StatusOr<std::string> read_file(const std::string& path);

/// Append-only byte writer. All integers are little-endian; varints are
/// LEB128 (the same convention as the MRT codec).
class CheckpointWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { fixed(value, 2); }
  void u32(std::uint32_t value) { fixed(value, 4); }
  void u64(std::uint64_t value) { fixed(value, 8); }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }

  void varint(std::uint64_t value) {
    while (value >= 0x80) {
      u8(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    u8(static_cast<std::uint8_t>(value));
  }

  void str(std::string_view text) {
    varint(text.size());
    buffer_.append(text);
  }

  std::size_t size() const noexcept { return buffer_.size(); }

  /// Wrap the accumulated payload in the integrity frame. The writer is
  /// spent afterwards.
  std::string finish() &&;

 private:
  void fixed(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i)
      buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }

  std::string buffer_;
};

/// Bounds-checked reader over a framed blob. The constructor validates
/// magic, version, length, and checksum; any out-of-range read afterwards
/// latches `ok() == false` and subsequent reads return zero values, so
/// deserialization code can read a whole schema and check `ok()` once.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view blob);

  bool ok() const noexcept { return ok_; }
  /// Human-readable reason for the first failure ("checksum mismatch", ...).
  std::string_view error() const noexcept { return error_; }
  /// True when the payload was consumed exactly.
  bool at_end() const noexcept { return ok_ && offset_ == payload_.size(); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(fixed(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }

  std::uint64_t varint();

  std::string_view str();

  /// Guard for length-prefixed containers: fail (rather than allocate) when
  /// a corrupted count exceeds what the remaining payload could encode.
  std::uint64_t container_size(std::uint64_t min_bytes_per_item);

 private:
  std::uint64_t fixed(int bytes);
  void fail(std::string_view reason);

  std::string_view payload_;
  std::size_t offset_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace pl::robust
