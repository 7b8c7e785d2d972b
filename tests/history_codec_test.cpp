// Compact day-delta codec suite: round-trips are exact for hand-built and
// sliced deltas, and every flavor of damage — truncation at any length, any
// single bit flipped, version skew — decodes to a precise kDataLoss, never a
// crash, never a partial delta. `serve::encode_day_delta` writes both the
// history delta frame and the WAL record (serve_durable_test locks the byte
// identity), so the truncation and every-bit-flip suites cover the WAL
// record too. Runs under the asan leg via the `chaos` label.
#include <gtest/gtest.h>

#include <string>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "robust/checkpoint.hpp"
#include "serve/durable.hpp"

namespace pl::history {
namespace {

using serve::decode_day_delta;
using serve::encode_day_delta;

serve::DayDelta hand_built_delta() {
  serve::DayDelta delta;
  delta.day = 6000;

  serve::DelegationFact fact;
  fact.asn = asn::Asn{64512};
  fact.registry = asn::Rir::kRipeNcc;
  fact.state.status = dele::Status::kAllocated;
  fact.state.registration_date = 5990;
  fact.state.country = *asn::CountryCode::parse("DE");
  fact.state.opaque_id = 17;
  delta.delegation.push_back(fact);

  // Second fact: LOWER ASN (negative zigzag delta), no registration date,
  // unknown country, different registry and status.
  fact = {};
  fact.asn = asn::Asn{42};
  fact.registry = asn::Rir::kArin;
  fact.state.status = dele::Status::kReserved;
  delta.delegation.push_back(fact);

  // Third: same country as the first (interned id reused), a registration
  // date AFTER the frame day (negative-able delta on the other side).
  fact = {};
  fact.asn = asn::Asn{4200000000u};
  fact.registry = asn::Rir::kApnic;
  fact.state.status = dele::Status::kAssigned;
  fact.state.registration_date = 6004;
  fact.state.country = *asn::CountryCode::parse("DE");
  fact.state.opaque_id = 3;
  delta.delegation.push_back(fact);

  delta.active = {asn::Asn{42}, asn::Asn{64512}, asn::Asn{64513}};
  return delta;
}

TEST(HistoryCodec, RoundTripsHandBuiltDeltaExactly) {
  const serve::DayDelta delta = hand_built_delta();
  const std::string frame = encode_day_delta(delta);
  auto decoded = decode_day_delta(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, delta);
}

TEST(HistoryCodec, FrameBytesArePinned) {
  // Repeated, interleaved and unknown countries: the frame's country table
  // lists DE, US, BR, JP in first-seen order and each fact points at its
  // 1-based id (0 for unknown). WAL and history files hold these frames,
  // so a change to the id order or the layout must show up here.
  serve::DayDelta delta;
  delta.day = 7000;
  std::uint32_t asn_value = 100;
  for (const char* code : {"DE", "", "US", "DE", "BR", "US", "", "BR", "JP"}) {
    serve::DelegationFact fact;
    fact.asn = asn::Asn{asn_value};
    asn_value += 7;
    fact.registry = asn::Rir::kRipeNcc;
    fact.state.status = dele::Status::kAllocated;
    if (*code != '\0') fact.state.country = *asn::CountryCode::parse(code);
    delta.delegation.push_back(fact);
  }
  delta.active = {asn::Asn{100}, asn::Asn{128}};

  std::string hex;
  for (const unsigned char byte : encode_day_delta(delta)) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  EXPECT_EQ(hex,
            "504c434b010000003a00000000000000"  // magic, version, length
            "02b06d"                            // delta version, day
            "04024445025553024252024a50"        // DE US BR JP
            "09"                                // nine facts:
            "10c8010100"                        //   AS100 DE
            "100e0000"                          //   unknown
            "100e0200"                          //   US
            "100e0100"                          //   DE again
            "100e0300"                          //   BR
            "100e0200"                          //   US again
            "100e0000"                          //   unknown
            "100e0300"                          //   BR again
            "100e0400"                          //   JP
            "02c80138"                          // active AS100, AS128
            "7cd236e1");                        // crc32
}

TEST(HistoryCodec, RoundTripsEmptyDelta) {
  serve::DayDelta delta;
  delta.day = 1;
  const std::string frame = encode_day_delta(delta);
  auto decoded = decode_day_delta(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, delta);
}

TEST(HistoryCodec, RoundTripsSlicedDaysExactly) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  const pipeline::Result world = pipeline::run_simulated(config);
  const util::Day end = world.truth.archive_end;
  for (const util::Day day : {end, end - 1, end - 17, end - 30}) {
    const serve::DayDelta delta = HistoryStore::slice_day(
        world.restored, world.op_world.activity, day);
    ASSERT_GT(delta.delegation.size(), 0u);
    auto decoded = decode_day_delta(encode_day_delta(delta));
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(*decoded, delta) << "sliced day " << day;
  }
}

TEST(HistoryCodec, TruncationAtEveryLengthIsDataLoss) {
  const std::string frame = encode_day_delta(hand_built_delta());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    auto decoded = decode_day_delta(frame.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << len << " accepted";
    EXPECT_EQ(decoded.status().code(), pl::StatusCode::kDataLoss);
  }
}

TEST(HistoryCodec, EveryBitFlipIsDataLoss) {
  // CRC32 detects any single-bit error, so no flip may round-trip — and
  // none may crash, even the ones that reach payload validation first.
  const std::string frame = encode_day_delta(hand_built_delta());
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = frame;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      auto decoded = decode_day_delta(damaged);
      ASSERT_FALSE(decoded.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
      EXPECT_EQ(decoded.status().code(), pl::StatusCode::kDataLoss);
    }
  }
}

TEST(HistoryCodec, VersionSkewIsDataLoss) {
  // A structurally valid frame from "the future": version bumped, payload
  // otherwise empty. Must be refused as skew, not misread.
  robust::CheckpointWriter w;
  w.varint(serve::kDayDeltaFormatVersion + 1);
  w.varint(0);  // day 0 (zigzag)
  w.varint(0);  // no countries
  w.varint(0);  // no facts
  w.varint(0);  // no active
  auto decoded = decode_day_delta(std::move(w).finish());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), pl::StatusCode::kDataLoss);
}

TEST(HistoryCodec, GarbageIsDataLoss) {
  EXPECT_EQ(decode_day_delta("").status().code(),
            pl::StatusCode::kDataLoss);
  EXPECT_EQ(decode_day_delta("PLCK but not really a frame at all")
                .status()
                .code(),
            pl::StatusCode::kDataLoss);
}

}  // namespace
}  // namespace pl::history
