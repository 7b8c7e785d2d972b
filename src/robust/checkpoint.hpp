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

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

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

/// Bytes of the frame header (magic, version, payload length) and trailer
/// (CRC) around a payload.
inline constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8;
inline constexpr std::size_t kFrameTrailerSize = 4;

/// Store / load `value` as sizeof(U) little-endian bytes.
template <typename U>
void store_le(char* out, U value) noexcept {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &value, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      out[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}
template <typename U>
U load_le(const char* in) noexcept {
  static_assert(std::is_unsigned_v<U>);
  U value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, in, sizeof(U));
  } else {
    for (std::size_t i = sizeof(U); i-- > 0;)
      value = static_cast<U>((value << 8) | static_cast<std::uint8_t>(in[i]));
  }
  return value;
}

/// Append-only byte writer. All integers are little-endian; varints are
/// LEB128 (the same convention as the MRT codec). The payload is written
/// after room for the frame header, so `finish()` frames it in place.
class CheckpointWriter {
 public:
  CheckpointWriter() : buffer_(kFrameHeaderSize, '\0') {}

  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { fixed(value); }
  void u32(std::uint32_t value) { fixed(value); }
  void u64(std::uint64_t value) { fixed(value); }
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

  /// A column of unsigned `U` values appended by `column`: set(i, v)
  /// stores value i little-endian in place.
  template <typename U>
  class ColumnOut {
   public:
    void set(std::size_t i, U value) {
      store_le<U>(buffer_->data() + at_ + i * sizeof(U), value);
    }

   private:
    friend class CheckpointWriter;
    ColumnOut(std::string* buffer, std::size_t at) : buffer_(buffer), at_(at) {}
    std::string* buffer_;
    std::size_t at_;
  };

  /// Append room for `count` values of unsigned `U`, to be filled through
  /// the returned column (several columns can be filled in one pass).
  template <typename U>
  ColumnOut<U> column(std::size_t count) {
    static_assert(std::is_unsigned_v<U>);
    const std::size_t at = buffer_.size();
    buffer_.resize(at + count * sizeof(U));
    return ColumnOut<U>(&buffer_, at);
  }

  /// Make room for `bytes` more payload bytes (and the trailer) at once.
  void reserve(std::size_t bytes) {
    buffer_.reserve(buffer_.size() + bytes + kFrameTrailerSize);
  }

  /// Payload bytes written so far.
  std::size_t size() const noexcept {
    return buffer_.size() - kFrameHeaderSize;
  }

  /// Wrap the accumulated payload in the integrity frame. The writer is
  /// spent afterwards.
  std::string finish() &&;

 private:
  template <typename U>
  void fixed(U value) {
    char bytes[sizeof(U)];
    store_le<U>(bytes, value);
    buffer_.append(bytes, sizeof(U));
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
  /// Payload bytes not read yet (0 once failed).
  std::size_t remaining() const noexcept { return payload_.size() - offset_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(fixed(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }

  std::uint64_t varint();

  std::string_view str();

  /// A column of unsigned `U` values taken by `column`; [i] loads value i.
  template <typename U>
  class ColumnIn {
   public:
    U operator[](std::size_t i) const noexcept {
      return load_le<U>(data_ + i * sizeof(U));
    }

   private:
    friend class CheckpointReader;
    explicit ColumnIn(const char* data) : data_(data) {}
    const char* data_;
  };

  /// Take the next `count` values of unsigned `U` as one column. A column
  /// that runs past the payload fails the reader, and the returned column
  /// must then not be read: take every column of a group, check `ok()`
  /// once, then read them in one pass.
  template <typename U>
  ColumnIn<U> column(std::size_t count) {
    static_assert(std::is_unsigned_v<U>);
    if (ok_ && count > (payload_.size() - offset_) / sizeof(U))
      fail("column overruns payload");
    if (!ok_) return ColumnIn<U>(nullptr);
    const char* data = payload_.data() + offset_;
    offset_ += count * sizeof(U);
    return ColumnIn<U>(data);
  }

  /// A u32 element count, failing the reader (and returning 0) when
  /// `count * min_bytes_per_item` exceeds the rest of the payload — so a
  /// corrupted count never sizes an allocation.
  std::uint32_t count(std::uint64_t min_bytes_per_item);

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
