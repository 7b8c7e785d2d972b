// Adversarial coverage for the `pl-dlg-bin/1` decoder: truncation at every
// framing boundary class, random bit-flips, version skew, and raw garbage
// must all land in a precise pl::Status (kDataLoss for damage,
// kInvalidArgument for version skew) — never a crash, never an unbounded
// decode loop, never a silently wrong success where a checksum applies.
// All randomness flows from util::Rng seeds, so a failure replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "delegation/interchange.hpp"
#include "rirsim/inject.hpp"
#include "rirsim/world.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace pl::dele {
namespace {

using util::Rng;

/// Wire-layout cursor positions recovered by a minimal test-side parse
/// (format documented at the encoder and in DESIGN.md §13):
///   "PLDB" | version:u32 | day_count:u32 | table_count:u32
///   | table_count x (len:varint | bytes) | rir:varint
///   | day_count x (payload_len:u32 | payload | crc:u32)
struct WireMap {
  std::uint32_t day_count = 0;
  std::size_t table_begin = 0;     ///< first string-table byte
  std::size_t frames_begin = 0;    ///< first frame's payload_len byte
  std::vector<std::size_t> frame_offsets;  ///< one per frame
};

std::uint32_t read_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i)
    value |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(bytes[at + i]))
             << (8 * i);
  return value;
}

WireMap map_archive(const std::string& bytes) {
  WireMap map;
  std::size_t at = 4;  // "PLDB"
  at += 4;             // version
  map.day_count = read_u32(bytes, at);
  at += 4;
  const std::uint32_t table_count = read_u32(bytes, at);
  at += 4;
  map.table_begin = at;
  const auto read_varint = [&bytes, &at]() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      const auto byte = static_cast<std::uint8_t>(bytes[at++]);
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  };
  for (std::uint32_t i = 0; i < table_count; ++i) at += read_varint();
  read_varint();  // registry id
  map.frames_begin = at;
  for (std::uint32_t day = 0; day < map.day_count; ++day) {
    map.frame_offsets.push_back(at);
    at += 4 + read_u32(bytes, at) + 4;
  }
  EXPECT_EQ(at, bytes.size()) << "test-side wire map out of sync";
  return map;
}

EncodedArchive small_binary_archive() {
  const rirsim::GroundTruth truth =
      rirsim::build_world(rirsim::WorldConfig::test_scale(42, 0.01));
  rirsim::InjectorConfig injector;
  injector.scale = 0.01;
  const rirsim::SimulatedArchive archive(truth, injector);
  return encode_archive(*archive.stream(asn::Rir::kRipeNcc));
}

/// Open and drain, checking the decode loop is bounded. Returns the final
/// latched status (open failure or stream status).
pl::Status drain(const EncodedArchive& archive, std::uint64_t* days = nullptr) {
  auto reader = open_archive(archive);
  if (!reader.ok()) return reader.status();
  std::uint64_t decoded = 0;
  const std::uint64_t bound =
      2 * static_cast<std::uint64_t>(archive.bytes.size()) + 64;
  while ((*reader)->next_view() != nullptr) {
    ++decoded;
    EXPECT_LE(decoded, bound) << "decode loop did not terminate";
    if (decoded > bound) break;
  }
  if (days != nullptr) *days = decoded;
  return (*reader)->status();
}

class BinaryDecoderFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pristine_ = new EncodedArchive(small_binary_archive());
    map_ = new WireMap(map_archive(pristine_->bytes));
  }
  static void TearDownTestSuite() {
    delete map_;
    delete pristine_;
    map_ = nullptr;
    pristine_ = nullptr;
  }

  static EncodedArchive damaged(std::string bytes) {
    EncodedArchive copy;
    copy.rir = pristine_->rir;
    copy.bytes = std::move(bytes);
    return copy;
  }

  static EncodedArchive* pristine_;
  static WireMap* map_;
};

EncodedArchive* BinaryDecoderFuzz::pristine_ = nullptr;
WireMap* BinaryDecoderFuzz::map_ = nullptr;

TEST_F(BinaryDecoderFuzz, PristineArchiveDrainsClean) {
  std::uint64_t days = 0;
  const pl::Status status = drain(*pristine_, &days);
  EXPECT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(days, map_->day_count);
}

TEST_F(BinaryDecoderFuzz, TruncationAtEveryBoundaryClassFailsPrecisely) {
  // One cut point per structural boundary class, plus every byte of the
  // fixed header and a seeded sample of interior cuts: a truncated archive
  // must always latch kDataLoss — a prefix can never pass for a whole
  // archive because the day count is promised up front.
  const std::string& bytes = pristine_->bytes;
  std::vector<std::size_t> cuts;
  for (std::size_t at = 0; at < 16 && at < bytes.size(); ++at)
    cuts.push_back(at);                       // magic + header fields
  cuts.push_back(map_->table_begin + 1);      // inside the string table
  cuts.push_back(map_->frames_begin);         // before the first frame
  for (const std::size_t frame : map_->frame_offsets) {
    cuts.push_back(frame + 2);                // inside payload_len
    cuts.push_back(frame + 4 + 1);            // inside the payload
    const std::size_t next = frame + 4 + read_u32(bytes, frame) + 4;
    cuts.push_back(next - 2);                 // inside the trailing CRC
    cuts.push_back(next);                     // clean inter-frame boundary
  }
  Rng rng(4242);
  for (int i = 0; i < 64; ++i)
    cuts.push_back(static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1)));

  for (const std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    const pl::Status latched = drain(damaged(bytes.substr(0, cut)));
    EXPECT_FALSE(latched.ok()) << "cut at " << cut;
    EXPECT_EQ(latched.code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << latched.to_string();
    EXPECT_FALSE(latched.message().empty()) << "cut at " << cut;
  }
}

TEST_F(BinaryDecoderFuzz, BitFlipsNeverCrashAndLatchPreciseStatus) {
  const std::string& bytes = pristine_->bytes;
  Rng rng(1337);
  int silent_ok = 0;
  for (int round = 0; round < 200; ++round) {
    std::string copy = bytes;
    const auto at = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(copy.size()) - 1));
    copy[at] = static_cast<char>(static_cast<std::uint8_t>(copy[at]) ^
                                 (1u << rng.uniform(0, 7)));
    const pl::Status status = drain(damaged(std::move(copy)));
    if (status.ok()) {
      // A flip inside an uncheck-summed header token can legitimately decode
      // as a different-but-valid archive; everything inside a frame is CRC'd.
      ++silent_ok;
      continue;
    }
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kInvalidArgument)
        << "round " << round << ": " << status.to_string();
    EXPECT_FALSE(status.message().empty()) << "round " << round;
  }
  // The overwhelming share of the byte stream is CRC-framed payload, so
  // silent successes must stay the rare exception.
  EXPECT_LT(silent_ok, 40);
}

TEST_F(BinaryDecoderFuzz, PayloadCorruptionIsCaughtByTheFrameCrc) {
  const std::string& bytes = pristine_->bytes;
  Rng rng(99);
  for (int round = 0; round < 32; ++round) {
    const std::size_t frame = map_->frame_offsets[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(map_->frame_offsets.size()) -
                           1))];
    const std::uint32_t payload_len = read_u32(bytes, frame);
    if (payload_len == 0) continue;
    std::string copy = bytes;
    const std::size_t at =
        frame + 4 + static_cast<std::size_t>(rng.uniform(
                        0, static_cast<std::int64_t>(payload_len) - 1));
    copy[at] = static_cast<char>(static_cast<std::uint8_t>(copy[at]) + 1);
    const pl::Status status = drain(damaged(std::move(copy)));
    ASSERT_FALSE(status.ok()) << "frame at " << frame;
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("CRC"), std::string::npos)
        << status.to_string();
  }
}

TEST_F(BinaryDecoderFuzz, VersionSkewIsInvalidArgument) {
  for (const std::uint32_t version : {0u, 2u, 99u, 0xFFFFFFFFu}) {
    std::string copy = pristine_->bytes;
    for (int i = 0; i < 4; ++i)
      copy[4 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
    const auto reader = open_archive(damaged(std::move(copy)));
    ASSERT_FALSE(reader.ok()) << "version " << version;
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().message().find("version"), std::string::npos)
        << reader.status().to_string();
  }
}

TEST_F(BinaryDecoderFuzz, BadMagicIsDataLoss) {
  std::string copy = pristine_->bytes;
  copy[0] = 'Q';
  const auto reader = open_archive(damaged(std::move(copy)));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST_F(BinaryDecoderFuzz, RandomBytesNeverCrashTheDecoder) {
  Rng rng(2026);
  for (int round = 0; round < 200; ++round) {
    std::string junk(static_cast<std::size_t>(rng.uniform(0, 512)), '\0');
    for (char& byte : junk)
      byte = static_cast<char>(rng.uniform(0, 255));
    const pl::Status status = drain(damaged(std::move(junk)));
    if (!status.ok()) {
      EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                  status.code() == StatusCode::kInvalidArgument)
          << "round " << round << ": " << status.to_string();
    }
  }
}

}  // namespace
}  // namespace pl::dele
