#include "robust/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <utility>

#include "util/crc32.hpp"

namespace pl::robust {

namespace {

constexpr std::string_view kMagic = "PLCK";
// magic + version:u32 + length:u64 ... payload ... crc:u32
constexpr std::size_t kHeaderSize = kFrameHeaderSize;
constexpr std::size_t kTrailerSize = kFrameTrailerSize;

std::uint32_t read_le32(std::string_view bytes, std::size_t at) noexcept {
  return load_le<std::uint32_t>(bytes.data() + at);
}

std::uint64_t read_le64(std::string_view bytes, std::size_t at) noexcept {
  return load_le<std::uint64_t>(bytes.data() + at);
}

}  // namespace

std::optional<std::size_t> frame_length(std::string_view bytes) noexcept {
  if (bytes.size() < kHeaderSize + kTrailerSize ||
      bytes.substr(0, 4) != kMagic)
    return std::nullopt;
  const std::uint64_t length = read_le64(bytes, 8);
  if (length > bytes.size() - kHeaderSize - kTrailerSize) return std::nullopt;
  return kHeaderSize + static_cast<std::size_t>(length) + kTrailerSize;
}

pl::StatusOr<std::string> read_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec))
    return pl::not_found_error("no such file: " + path);
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return pl::unavailable_error("cannot size " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return pl::unavailable_error("cannot open " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::uintmax_t>(in.gcount()) != size)
    return pl::unavailable_error("read failed: " + path);
  return bytes;
}

std::string CheckpointWriter::finish() && {
  const std::string_view payload =
      std::string_view(buffer_).substr(kHeaderSize);
  const std::uint32_t checksum = util::crc32(payload);
  char* header = buffer_.data();
  std::memcpy(header, kMagic.data(), kMagic.size());
  store_le<std::uint32_t>(header + 4, kCheckpointVersion);
  store_le<std::uint64_t>(header + 8, payload.size());
  char trailer[kTrailerSize];
  store_le<std::uint32_t>(trailer, checksum);
  buffer_.append(trailer, kTrailerSize);
  return std::move(buffer_);
}

CheckpointReader::CheckpointReader(std::string_view blob) {
  if (frame_length(blob) != blob.size()) {
    fail("not one whole frame (bad magic or torn write?)");
    return;
  }
  if (read_le32(blob, 4) != kCheckpointVersion) {
    fail("unsupported checkpoint version");
    return;
  }
  const std::size_t length = blob.size() - kHeaderSize - kTrailerSize;
  payload_ = blob.substr(kHeaderSize, length);
  if (read_le32(blob, kHeaderSize + length) != util::crc32(payload_)) {
    fail("checksum mismatch");
    return;
  }
}

void CheckpointReader::fail(std::string_view reason) {
  if (!ok_) return;
  ok_ = false;
  error_ = std::string(reason);
  payload_ = {};
  offset_ = 0;
}

std::uint64_t CheckpointReader::fixed(int bytes) {
  if (!ok_) return 0;
  if (offset_ + static_cast<std::size_t>(bytes) > payload_.size()) {
    fail("payload exhausted");
    return 0;
  }
  std::uint64_t value = 0;
  for (int i = bytes - 1; i >= 0; --i)
    value = (value << 8) | static_cast<std::uint8_t>(
                               payload_[offset_ + static_cast<std::size_t>(i)]);
  offset_ += static_cast<std::size_t>(bytes);
  return value;
}

std::uint64_t CheckpointReader::varint() {
  std::uint64_t value = 0;
  int shift = 0;
  while (shift < 64) {
    const std::uint8_t byte = u8();
    if (!ok_) return 0;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  fail("overlong varint");
  return 0;
}

std::string_view CheckpointReader::str() {
  const std::uint64_t length = varint();
  if (!ok_) return {};
  if (offset_ + length > payload_.size()) {
    fail("string overruns payload");
    return {};
  }
  const std::string_view view =
      payload_.substr(offset_, static_cast<std::size_t>(length));
  offset_ += static_cast<std::size_t>(length);
  return view;
}

std::uint32_t CheckpointReader::count(std::uint64_t min_bytes_per_item) {
  const std::uint32_t items = static_cast<std::uint32_t>(fixed(4));
  if (!ok_) return 0;
  if (items * min_bytes_per_item > payload_.size() - offset_) {
    fail("count runs past the payload");
    return 0;
  }
  return items;
}

std::uint64_t CheckpointReader::container_size(
    std::uint64_t min_bytes_per_item) {
  const std::uint64_t count = varint();
  if (!ok_) return 0;
  const std::uint64_t remaining = payload_.size() - offset_;
  if (min_bytes_per_item > 0 && count > remaining / min_bytes_per_item) {
    fail("container count exceeds payload");
    return 0;
  }
  return count;
}

}  // namespace pl::robust
