// Durable serving: snapshot persistence round-trips bit-identically,
// corruption in every flavor is rejected (never silently loaded), the WAL
// append/replay cycle reconstructs exact state and writes the history
// store's own delta frames, retries are deterministic, and the
// DurableService surfaces an accurate HealthReport.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "robust/checkpoint.hpp"
#include "serve/durable.hpp"
#include "serve/serving.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {
namespace {

// World slicing lives on HistoryStore.
constexpr auto slice_day = &history::HistoryStore::slice_day;
constexpr auto truncate_archive = &history::HistoryStore::truncate_archive;
constexpr auto truncate_activity = &history::HistoryStore::truncate_activity;

pipeline::Config small_config() {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  return config;
}

const pipeline::Result& small_pipeline() {
  static const pipeline::Result result = pipeline::run_simulated(small_config());
  return result;
}

Snapshot small_snapshot() {
  const pipeline::Result& result = small_pipeline();
  return Snapshot::build(result.restored, result.op_world.activity,
                         result.truth.archive_end);
}

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DurableSnapshot, RoundTripsBitIdentically) {
  const std::string dir = temp_dir("durable_roundtrip");
  const std::string path = dir + "/snap.plsnap";
  const Snapshot original = small_snapshot();
  ASSERT_TRUE(original.can_advance());

  ASSERT_TRUE(save_snapshot(original, path).ok());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  // Deep equality: rows, config, derived indexes AND the working set, so
  // the reopened snapshot can keep advancing.
  EXPECT_TRUE(*reopened == original);
  EXPECT_TRUE(reopened->can_advance());
}

TEST(DurableSnapshot, QueryOnlySnapshotRoundTrips) {
  const pipeline::Result& result = small_pipeline();
  const Snapshot original = Snapshot::from_datasets(result.admin, result.op);
  const std::string dir = temp_dir("durable_queryonly");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(original, path).ok());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened == original);
  EXPECT_FALSE(reopened->can_advance());
}

TEST(DurableSnapshot, MissingFileIsNotFound) {
  EXPECT_EQ(open_snapshot(testing::TempDir() + "no_such_snap").status().code(),
            pl::StatusCode::kNotFound);
}

TEST(DurableSnapshot, TruncationIsRejectedAtEveryPrefix) {
  const std::string dir = temp_dir("durable_truncate");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(small_snapshot(), path).ok());
  const std::string bytes = read_all(path);
  ASSERT_GT(bytes.size(), 64u);

  // A sweep of prefix lengths, including the header-only and mid-payload
  // cases a torn write would leave behind.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{15}, std::size_t{16},
        std::size_t{64}, bytes.size() / 2, bytes.size() - 1}) {
    write_all(path, bytes.substr(0, keep));
    const auto status = open_snapshot(path).status();
    EXPECT_EQ(status.code(), pl::StatusCode::kDataLoss)
        << "prefix " << keep << " loaded: " << status.to_string();
  }
}

TEST(DurableSnapshot, BitFlipsAreRejected) {
  const std::string dir = temp_dir("durable_bitflip");
  const std::string path = dir + "/snap.plsnap";
  ASSERT_TRUE(save_snapshot(small_snapshot(), path).ok());
  const std::string bytes = read_all(path);

  for (const std::size_t at :
       {std::size_t{0}, std::size_t{8}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x40);
    write_all(path, flipped);
    EXPECT_EQ(open_snapshot(path).status().code(), pl::StatusCode::kDataLoss)
        << "flip at " << at << " was not detected";
  }
}

TEST(DurableSnapshot, PayloadVersionSkewIsRejected) {
  // A frame with a VALID checksum but a past or future payload schema
  // version: the frame layer passes, the codec must still refuse to
  // interpret it.
  for (const std::uint32_t version :
       {kSnapshotFormatVersion - 1, kSnapshotFormatVersion + 1}) {
    robust::CheckpointWriter writer;
    writer.u32(version);
    writer.i32(123);
    const std::string dir = temp_dir("durable_skew");
    const std::string path = dir + "/snap.plsnap";
    write_all(path, std::move(writer).finish());

    const auto status = open_snapshot(path).status();
    EXPECT_EQ(status.code(), pl::StatusCode::kDataLoss) << version;
    EXPECT_NE(status.message().find("version skew"), std::string::npos);
  }
}

TEST(DurableSnapshot, EncodingIsDeterministic) {
  // encode(decode(encode(s))) == encode(s), byte for byte: a snapshot with
  // a working set (as built, and after folds that merged new spans and runs
  // into its tables) and a query-only one.
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  Snapshot advanced = history::HistoryStore::rebuild_at(
      result.restored, result.op_world.activity, end - 5);
  for (util::Day day = end - 4; day <= end; ++day)
    ASSERT_TRUE(advanced
                    .advance_day(slice_day(result.restored,
                                           result.op_world.activity, day))
                    .ok());
  for (const Snapshot& snapshot :
       {small_snapshot(), advanced,
        Snapshot::from_datasets(result.admin, result.op)}) {
    const std::string bytes = encode_snapshot(snapshot);
    auto decoded = decode_snapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_TRUE(*decoded == snapshot);
    EXPECT_EQ(encode_snapshot(*decoded), bytes);
  }
}

/// A tiny snapshot spelled out column by column in the v3 payload layout,
/// so each test case can break exactly one field of an otherwise valid,
/// CRC-correct frame.
struct Columns {
  struct Row { std::uint32_t asn, admin, op; std::uint16_t flags; };
  struct Admin {
    std::int32_t registration, first, last;
    std::uint64_t opaque;
    std::uint16_t country;
    std::uint8_t registry, category, bits;
  };
  struct Op {
    std::int32_t first, last, admin_index;
    std::uint8_t category, bits;
  };
  struct Span {
    std::int32_t first, last;
    std::uint8_t head;
    std::int32_t registration;
    std::uint64_t opaque;
    std::uint16_t country;
  };
  struct Run { std::int32_t first, last; };

  static constexpr std::uint16_t kUs = ('U' << 8) | 'S';
  static constexpr std::uint8_t kHasDate = 0x04;

  std::uint32_t row_count = 2;  // as written; the rows below are the data
  std::vector<Row> rows = {{10, 1, 1, 3}, {20, 1, 0, 1}};
  std::vector<Admin> admin = {{90, 100, 200, 7, kUs, 0, 0, 1},
                              {120, 120, 200, 8, kUs, 0, 2, 1}};
  std::vector<Op> op = {{130, 160, 0, 0, 0}};
  std::vector<std::uint32_t> span_keys = {10, 20};
  std::vector<std::uint32_t> span_offsets = {0, 2};
  std::uint32_t span_count = 3;  // as written
  std::vector<Span> spans = {{100, 150, 0 | kHasDate, 90, 7, kUs},
                             {151, 200, 3, 0, 0, 0},
                             {120, 200, 1 | kHasDate, 120, 8, kUs}};
  std::vector<std::uint32_t> run_keys = {10, 20};
  std::vector<std::uint32_t> run_offsets = {0, 2};
  std::vector<Run> runs = {{130, 140}, {150, 160}, {125, 125}};
  std::int32_t unflagged_first_observed = 0;  // every registry but ARIN
  std::size_t trailing_bytes = 0;

  std::string frame() const {
    robust::CheckpointWriter w;
    w.u32(kSnapshotFormatVersion);
    w.i32(200);  // archive end
    w.i32(30);   // config: op timeout, transfer gap, dormancy, duration
    w.i32(0);
    w.i64(365);
    w.u64(0);
    w.u32(row_count);
    for (const Row& r : rows) w.u32(r.asn);
    for (const Row& r : rows) w.u32(r.admin);
    for (const Row& r : rows) w.u32(r.op);
    for (const Row& r : rows) w.u16(r.flags);
    for (const Admin& a : admin) w.i32(a.registration);
    for (const Admin& a : admin) w.i32(a.first);
    for (const Admin& a : admin) w.i32(a.last);
    for (const Admin& a : admin) w.u64(a.opaque);
    for (const Admin& a : admin) w.u16(a.country);
    for (const Admin& a : admin) w.u8(a.registry);
    for (const Admin& a : admin) w.u8(a.category);
    for (const Admin& a : admin) w.u8(a.bits);
    for (const Op& o : op) w.i32(o.first);
    for (const Op& o : op) w.i32(o.last);
    for (const Op& o : op) w.i32(o.admin_index);
    for (const Op& o : op) w.u8(o.category);
    for (const Op& o : op) w.u8(o.bits);
    w.boolean(true);  // working set
    for (std::size_t reg = 0; reg < asn::kRirCount; ++reg) {
      const bool arin = reg == 0;
      w.boolean(arin);  // first observed
      w.i32(arin ? 100 : unflagged_first_observed);
      w.u32(arin ? static_cast<std::uint32_t>(span_keys.size()) : 0);
      w.u32(arin ? span_count : 0);
      if (!arin) continue;
      for (const std::uint32_t key : span_keys) w.u32(key);
      for (const std::uint32_t offset : span_offsets) w.u32(offset);
      for (const Span& s : spans) w.i32(s.first);
      for (const Span& s : spans) w.i32(s.last);
      for (const Span& s : spans) w.u8(s.head);
      for (const Span& s : spans) w.i32(s.registration);
      for (const Span& s : spans) w.u64(s.opaque);
      for (const Span& s : spans) w.u16(s.country);
    }
    w.u32(static_cast<std::uint32_t>(run_keys.size()));
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const std::uint32_t key : run_keys) w.u32(key);
    for (const std::uint32_t offset : run_offsets) w.u32(offset);
    for (const Run& r : runs) w.i32(r.first);
    for (const Run& r : runs) w.i32(r.last);
    for (std::size_t i = 0; i < trailing_bytes; ++i) w.u8(0);
    return std::move(w).finish();
  }
};

TEST(DurableSnapshot, HostileColumnsAreRejected) {
  // The unbroken frame decodes, so each case below fails on its one field.
  auto valid = decode_snapshot(Columns{}.frame());
  ASSERT_TRUE(valid.ok()) << valid.status().to_string();
  EXPECT_TRUE(valid->can_advance());
  EXPECT_TRUE(*decode_snapshot(encode_snapshot(*valid)) == *valid);

  // What breaks, and the start of the reason the decoder gives.
  struct Case {
    const char* what;
    const char* reason;
    void (*breaks)(Columns&);
  };
  const Case cases[] = {
      {"row count", "snapshot failed to decode: count runs past",
       [](Columns& c) { c.row_count = 1u << 30; }},
      {"life count", "snapshot life counts run past",
       [](Columns& c) { c.rows[1].admin = 1u << 30; }},
      {"span count", "snapshot failed to decode: count runs past",
       [](Columns& c) { c.span_count = 1u << 30; }},
      {"non-monotone span offsets", "table offsets not strictly",
       [](Columns& c) { c.span_offsets = {0, 0}; }},
      {"span offsets not from 0", "table offsets not strictly",
       [](Columns& c) { c.span_offsets = {1, 2}; }},
      {"span offset past the values", "table offsets run past",
       [](Columns& c) { c.span_offsets = {0, 3}; }},
      {"non-monotone run offsets", "table offsets not strictly",
       [](Columns& c) { c.run_offsets = {2, 0}; }},
      {"run offset past the values", "table offsets run past",
       [](Columns& c) { c.run_offsets = {0, 3}; }},
      {"span keys without values", "table keys without values",
       [](Columns& c) {
         c.span_count = 0;
         c.spans.clear();
       }},
      {"span values without keys", "table keys without values",
       [](Columns& c) {
         c.span_keys.clear();
         c.span_offsets.clear();
       }},
      {"run keys without values", "table keys without values",
       [](Columns& c) { c.runs.clear(); }},
      {"unsorted rows", "snapshot rows not sorted",
       [](Columns& c) { std::swap(c.rows[0], c.rows[1]); }},
      {"repeated rows", "snapshot rows not sorted",
       [](Columns& c) { c.rows[1].asn = 10; }},
      {"unsorted span keys", "table keys not strictly",
       [](Columns& c) { c.span_keys = {20, 10}; }},
      {"repeated span keys", "table keys not strictly",
       [](Columns& c) { c.span_keys = {10, 10}; }},
      {"unsorted activity keys", "table keys not strictly",
       [](Columns& c) { c.run_keys = {20, 10}; }},
      {"repeated activity keys", "table keys not strictly",
       [](Columns& c) { c.run_keys = {10, 10}; }},
      {"span first > last", "snapshot spans empty or overlapping",
       [](Columns& c) { c.spans[0].last = 99; }},
      {"overlapping spans", "snapshot spans empty or overlapping",
       [](Columns& c) { c.spans[1].first = 150; }},
      {"status byte", "span head bits",
       [](Columns& c) { c.spans[1].head = 0x08; }},
      {"span date without its bit", "span registration date",
       [](Columns& c) { c.spans[1].registration = 5; }},
      {"registry byte", "registry out of range",
       [](Columns& c) { c.admin[0].registry = 5; }},
      {"admin category byte", "taxonomy category",
       [](Columns& c) { c.admin[0].category = 4; }},
      {"op category byte", "taxonomy category",
       [](Columns& c) { c.op[0].category = 4; }},
      {"admin life bits", "admin life bits",
       [](Columns& c) { c.admin[0].bits = 4; }},
      {"op life bits", "op life bits",
       [](Columns& c) { c.op[0].bits = 4; }},
      {"first observed day without its flag", "first observed day without",
       [](Columns& c) { c.unflagged_first_observed = 5; }},
      {"lowercase country", "bad country code",
       [](Columns& c) { c.admin[1].country = 'u' << 8 | 's'; }},
      {"half a span country", "bad country code",
       [](Columns& c) { c.spans[0].country = 'U' << 8; }},
      {"overlapping runs", "snapshot activity runs",
       [](Columns& c) { c.runs[1].first = 140; }},
      {"adjacent runs", "snapshot activity runs",
       [](Columns& c) { c.runs[1].first = 141; }},
      {"run first > last", "snapshot activity runs",
       [](Columns& c) { c.runs[2].last = 124; }},
      {"admin index past the ASN's lives", "op life admin index",
       [](Columns& c) { c.op[0].admin_index = 1; }},
      {"admin index below -1", "op life admin index",
       [](Columns& c) { c.op[0].admin_index = -2; }},
      {"trailing bytes", "snapshot failed to decode: trailing bytes",
       [](Columns& c) { c.trailing_bytes = 1; }},
  };
  for (const Case& each : cases) {
    Columns columns;
    each.breaks(columns);
    const pl::Status status = decode_snapshot(columns.frame()).status();
    EXPECT_EQ(status.code(), pl::StatusCode::kDataLoss) << each.what;
    EXPECT_EQ(status.message().rfind(each.reason, 0), 0u)
        << each.what << ": " << status.to_string();
  }
}

TEST(DurableSnapshot, SaveIsAtomicOverExistingFile) {
  const std::string dir = temp_dir("durable_atomic");
  const std::string path = dir + "/snap.plsnap";
  const Snapshot original = small_snapshot();
  ASSERT_TRUE(save_snapshot(original, path).ok());

  // A crash halfway through the NEXT save must leave the previous bytes
  // untouched (the torn write lands in the .tmp sibling).
  robust::CrashPoints crash;
  crash.arm("durable.checkpoint.torn_tmp");
  EXPECT_FALSE(save_snapshot(original, path, &crash).ok());
  EXPECT_TRUE(crash.fired());
  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(*reopened == original);
}

TEST(DurableWal, AppendReplayRoundTrips) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_roundtrip");
  const std::string path = dir + "/days.plwal";

  std::vector<DayDelta> days;
  for (util::Day day = end - 4; day <= end; ++day) {
    days.push_back(slice_day(result.restored, result.op_world.activity, day));
    ASSERT_TRUE(append_wal(path, days.back()).ok());
  }
  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 5);
  EXPECT_EQ(replay->corrupt_records, 0);
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->deltas.size(), days.size());
  for (std::size_t i = 0; i < days.size(); ++i)
    EXPECT_EQ(replay->deltas[i], days[i]) << "record " << i;
}

TEST(DurableWal, TornTailIsDroppedNotFatal) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_torn");
  const std::string path = dir + "/days.plwal";

  const DayDelta first =
      slice_day(result.restored, result.op_world.activity, end - 1);
  ASSERT_TRUE(append_wal(path, first).ok());
  robust::CrashPoints crash;
  crash.arm("durable.wal.torn_append");
  const DayDelta second =
      slice_day(result.restored, result.op_world.activity, end);
  EXPECT_FALSE(append_wal(path, second, &crash).ok());

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 1);
  ASSERT_EQ(replay->deltas.size(), 1u);
  EXPECT_EQ(replay->deltas[0], first);
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_GT(replay->dropped_bytes, 0);
}

TEST(DurableWal, CorruptMiddleRecordIsSkippedWithAccounting) {
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_corrupt_mid");
  const std::string path = dir + "/days.plwal";

  std::vector<std::size_t> sizes;
  for (util::Day day = end - 2; day <= end; ++day) {
    const DayDelta delta =
        slice_day(result.restored, result.op_world.activity, day);
    ASSERT_TRUE(append_wal(path, delta).ok());
    sizes.push_back(read_all(path).size());
  }
  // Flip one byte inside the SECOND record's payload; frame boundaries
  // stay parseable, so replay should skip exactly that record.
  std::string bytes = read_all(path);
  bytes[sizes[0] + 24] = static_cast<char>(bytes[sizes[0] + 24] ^ 0x01);
  write_all(path, bytes);

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->valid_records, 2);
  EXPECT_EQ(replay->corrupt_records, 1);
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->deltas.size(), 2u);
  EXPECT_EQ(replay->deltas[0].day, end - 2);
  EXPECT_EQ(replay->deltas[1].day, end);
}

TEST(DurableWal, RecordIsByteIdenticalToHistoryDeltaFrame) {
  // The WAL and the history store share one day-delta codec: each record
  // append_wal writes is the frame encode_day_delta makes for that day —
  // the frame HistoryStore::append_day records — and the store's delta
  // bytes add up to the WAL's size.
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_equals_history");
  const std::string wal_path = dir + "/days.plwal";

  auto history = history::HistoryStore::build(
      result.restored, result.op_world.activity, end - 5, end);
  ASSERT_TRUE(history.ok()) << history.status().to_string();
  ASSERT_EQ(history->stats().deltas, 5);

  std::size_t offset = 0;
  for (util::Day day = end - 4; day <= end; ++day) {
    const DayDelta delta =
        slice_day(result.restored, result.op_world.activity, day);
    ASSERT_TRUE(append_wal(wal_path, delta).ok());
    const std::string wal = read_all(wal_path);
    EXPECT_EQ(wal.substr(offset), encode_day_delta(delta))
        << "WAL record for day " << day << " differs from the delta frame";
    offset = wal.size();
  }
  EXPECT_EQ(static_cast<std::int64_t>(offset), history->stats().delta_bytes);
}

TEST(DurableWal, OldFixedWidthRecordIsCorrupt) {
  // A record in the WAL's former fixed-width layout must be refused, not
  // misread: its payload opens with u32 1, which the day-delta decoder
  // reads as format version 1.
  const pipeline::Result& result = small_pipeline();
  const util::Day end = result.truth.archive_end;
  const std::string dir = temp_dir("wal_old_record");
  const std::string path = dir + "/days.plwal";

  robust::CheckpointWriter old;
  old.u32(1);        // record format version
  old.i32(end - 1);  // day
  old.varint(1);     // one delegation fact
  old.u32(64512);
  old.u8(static_cast<std::uint8_t>(asn::index_of(asn::Rir::kRipeNcc)));
  old.u8(static_cast<std::uint8_t>(dele::Status::kAllocated));
  old.boolean(true);  // has a registration date
  old.i32(end - 30);
  old.boolean(true);  // known country
  old.str("DE");
  old.u64(17);     // opaque org id
  old.varint(1);   // one active ASN
  old.u32(64512);
  write_all(path, std::move(old).finish());
  const DayDelta current =
      slice_day(result.restored, result.op_world.activity, end);
  ASSERT_TRUE(append_wal(path, current).ok());

  auto replay = replay_wal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->corrupt_records, 1);
  EXPECT_EQ(replay->valid_records, 1);
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->deltas.size(), 1u);
  EXPECT_EQ(replay->deltas[0], current);
}

TEST(DurableRetry, TransientUnavailableIsRetriedDeterministically) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    if (calls < 3) return pl::unavailable_error("transient");
    return Snapshot{};
  };
  RetryPolicy policy;
  policy.max_attempts = 4;
  int attempts = 0;
  auto loaded = load_with_retry(loader, policy, &attempts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
}

TEST(DurableRetry, GivesUpAfterMaxAttempts) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    return pl::unavailable_error("still down");
  };
  RetryPolicy policy;
  policy.max_attempts = 5;
  auto loaded = load_with_retry(loader, policy);
  EXPECT_EQ(loaded.status().code(), pl::StatusCode::kUnavailable);
  EXPECT_EQ(calls, 5);
}

TEST(DurableRetry, PermanentErrorsAreNotRetried) {
  int calls = 0;
  const SnapshotLoader loader = [&calls]() -> pl::StatusOr<Snapshot> {
    ++calls;
    return pl::data_loss_error("corrupt");
  };
  auto loaded = load_with_retry(loader, RetryPolicy{});
  EXPECT_EQ(loaded.status().code(), pl::StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
}

TEST(DurableService, AdvancesAndRecoversAcrossReopen) {
  const pipeline::Config config = small_config();
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const util::Day start = end - 10;

  Snapshot base = Snapshot::build(truncate_archive(extended.restored, start),
                                  truncate_activity(extended.op_world.activity, start),
                                  start);
  const std::string dir = temp_dir("durable_service");
  DurableConfig durable;
  durable.dir = dir;
  durable.checkpoint_every_days = 4;

  {
    auto service = DurableService::open(std::move(base), durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    for (util::Day day = start + 1; day <= end - 5; ++day) {
      const DayDelta delta =
          slice_day(extended.restored, extended.op_world.activity, day);
      ASSERT_TRUE(service->advance_day(delta).ok());
    }
    EXPECT_EQ(service->archive_end(), end - 5);
    const HealthReport health = service->health();
    EXPECT_FALSE(health.degraded);
    EXPECT_EQ(health.last_durable_day, end - 5);
    // checkpoint_every_days = 4 over 5 folded days: one checkpoint fired,
    // one day still rides the WAL.
    EXPECT_EQ(health.wal_records, 1);
  }

  // Reopen from disk only (bootstrap deliberately empty) and keep going.
  auto reopened = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened->archive_end(), end - 5);
  EXPECT_FALSE(reopened->health().degraded);
  for (util::Day day = end - 4; day <= end; ++day) {
    const DayDelta delta =
        slice_day(extended.restored, extended.op_world.activity, day);
    ASSERT_TRUE(reopened->advance_day(delta).ok());
  }
  const Snapshot full = Snapshot::build(extended.restored,
                                        extended.op_world.activity, end);
  EXPECT_TRUE(reopened->snapshot() == full);
}

TEST(DurableService, OpenAndCheckpointTraceEachPhase) {
  const std::string dir = temp_dir("durable_phases");
  DurableConfig durable;
  durable.dir = dir;
  const Snapshot bootstrap = small_snapshot();
  {
    auto service = DurableService::open(bootstrap, durable);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    ASSERT_TRUE(service->checkpoint().ok());
    if (obs::kEnabled) {
      const obs::Report report = service->report();
      const obs::TraceNode* checkpoint =
          report.trace.child("serve.durable.checkpoint");
      ASSERT_NE(checkpoint, nullptr);
      ASSERT_EQ(checkpoint->children.size(), 3u);
      const char* const phases[] = {"encode", "write", "rename"};
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(checkpoint->children[i].name, phases[i]);
      EXPECT_EQ(checkpoint->child("encode")->note_value("bytes"),
                static_cast<std::int64_t>(
                    std::filesystem::file_size(service->snapshot_path())));
    }
  }

  auto reopened = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened->snapshot() == bootstrap);
  if (!obs::kEnabled) return;  // obs-off: report is empty by design
  const obs::Report report = reopened->report();
  const obs::TraceNode* open = report.trace.child("serve.durable.open");
  ASSERT_NE(open, nullptr);
  ASSERT_EQ(open->children.size(), 4u);
  const char* const phases[] = {"read", "verify", "decode", "index"};
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(open->children[i].name, phases[i]);
  EXPECT_EQ(open->child("read")->note_value("bytes"),
            static_cast<std::int64_t>(
                std::filesystem::file_size(reopened->snapshot_path())));
  EXPECT_EQ(open->child("index")->note_value("rows"),
            static_cast<std::int64_t>(bootstrap.asn_count()));
}

TEST(DurableService, MisSequencedDayNeverLandsInTheWal) {
  const std::string dir = temp_dir("durable_missequence");
  DurableConfig durable;
  durable.dir = dir;
  auto service = DurableService::open(small_snapshot(), durable);
  ASSERT_TRUE(service.ok());
  const util::Day end = service->archive_end();

  DayDelta wrong;
  wrong.day = end + 7;
  EXPECT_EQ(service->advance_day(wrong).code(),
            pl::StatusCode::kInvalidArgument);
  // Nothing was acknowledged, so nothing may be durable: the WAL is absent
  // or empty and health is clean.
  auto replay = replay_wal(service->wal_path());
  if (replay.ok()) {
    EXPECT_EQ(replay->valid_records, 0);
  }
  EXPECT_FALSE(service->health().degraded);
}

TEST(DurableService, QuarantinedDayDegradesButKeepsServing) {
  const pipeline::Config config = small_config();
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const std::string dir = temp_dir("durable_quarantine");

  DurableConfig durable;
  durable.dir = dir;
  Snapshot base = Snapshot::build(truncate_archive(extended.restored, end - 2),
                                  truncate_activity(extended.op_world.activity, end - 2),
                                  end - 2);
  auto service = DurableService::open(std::move(base), durable);
  ASSERT_TRUE(service.ok());

  // A delta with the right day number but a duplicate (registry, ASN) fact
  // appends to the WAL, then fails the fold — exactly the quarantine path.
  DayDelta poisoned =
      slice_day(extended.restored, extended.op_world.activity, end - 1);
  ASSERT_FALSE(poisoned.delegation.empty());
  poisoned.delegation.push_back(poisoned.delegation.front());
  EXPECT_FALSE(service->advance_day(poisoned).ok());

  const HealthReport health = service->health();
  EXPECT_TRUE(health.degraded);
  ASSERT_EQ(health.quarantined_days.size(), 1u);
  EXPECT_EQ(health.quarantined_days[0], end - 1);
  EXPECT_EQ(health.last_durable_day, end - 2);
  EXPECT_FALSE(health.last_error.empty());

  // Still answering queries from the last good state.
  EXPECT_EQ(service->archive_end(), end - 2);
  auto census = service->queries().query(Query::census(end - 2));
  ASSERT_TRUE(census.ok()) << census.status().to_string();
  ASSERT_TRUE(census->census.has_value());
  EXPECT_EQ(census->census->day, end - 2);

  // Reopen replays the poisoned record, quarantines it again, and reports
  // the same degradation — deterministic recovery, no silent skip.
  auto reopened = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(reopened.ok());
  const HealthReport after = reopened->health();
  EXPECT_TRUE(after.degraded);
  ASSERT_EQ(after.quarantined_days.size(), 1u);
  EXPECT_EQ(after.quarantined_days[0], end - 1);
  EXPECT_EQ(reopened->archive_end(), end - 2);
}

TEST(DurableService, CorruptSnapshotFallsBackToBootstrapAndReports) {
  const std::string dir = temp_dir("durable_snapcorrupt");
  DurableConfig durable;
  durable.dir = dir;
  const Snapshot bootstrap = small_snapshot();
  {
    auto service = DurableService::open(bootstrap, durable);
    ASSERT_TRUE(service.ok());
  }
  // Flip a payload byte: the next open must reject the file, fall back to
  // the bootstrap snapshot, and say so in health + metrics.
  const std::string path = dir + "/snapshot.plsnap";
  std::string bytes = read_all(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_all(path, bytes);

  auto reopened = DurableService::open(bootstrap, durable);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  const HealthReport health = reopened->health();
  EXPECT_TRUE(health.degraded);
  EXPECT_TRUE(health.snapshot_rejected);
  EXPECT_FALSE(health.last_error.empty());
  EXPECT_TRUE(reopened->snapshot() == bootstrap);
#ifndef PL_OBS_OFF
  const obs::Report report = reopened->report();
  EXPECT_EQ(report.metrics.counter_value("pl_serve_snapshot_rejected"), 1);
  ASSERT_EQ(report.metrics.gauges.count("pl_serve_degraded"), 1u);
  EXPECT_EQ(report.metrics.gauges.at("pl_serve_degraded"), 1);
#endif
}

TEST(DurableService, TransientLoaderErrorsAreRetriedOnOpen) {
  const std::string dir = temp_dir("durable_loader_retry");
  const Snapshot bootstrap = small_snapshot();
  int calls = 0;
  DurableConfig durable;
  durable.dir = dir;
  durable.loader = [&calls, &bootstrap]() -> pl::StatusOr<Snapshot> {
    ++calls;
    if (calls < 3) return pl::unavailable_error("nfs flake");
    return bootstrap;
  };
  auto service = DurableService::open(Snapshot{}, durable);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(service->health().load_attempts, 3);
  EXPECT_TRUE(service->snapshot() == bootstrap);
  EXPECT_FALSE(service->health().degraded);
}

TEST(ServingWrapper, PersistsTheSnapshotAsATracedStage) {
  const std::string dir = temp_dir("serving_persist");
  const std::string path = dir + "/snap.plsnap";
  pipeline::Config config = small_config();
  const ServingWorld world = run_simulated_serving(config, {}, path);
  ASSERT_TRUE(world.save_status.ok()) << world.save_status.to_string();

  auto reopened = open_snapshot(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened == world.snapshot);
#ifndef PL_OBS_OFF
  EXPECT_GT(world.result.timings.save_snapshot_ms, 0.0);
  const obs::TraceNode* stage = world.result.report.trace.child("serve.save_snapshot");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->note_value("ok"), 1);
#endif
}

}  // namespace
}  // namespace pl::serve
