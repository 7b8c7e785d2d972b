#include "serve/durable.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "robust/checkpoint.hpp"
#include "util/crc32.hpp"

namespace pl::serve {
namespace {

// -- raw file helpers ------------------------------------------------------

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// Write `bytes` to `path` (truncating), flushing before returning.
pl::Status write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    return pl::unavailable_error("cannot open " + path + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) return pl::unavailable_error("write failed: " + path);
  return {};
}

pl::Status crash_status(std::string_view site) {
  return pl::internal_error("crash injected at " + std::string(site));
}

// -- day-delta codec helpers ----------------------------------------------

std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

// Per-fact head byte: status (2 bits) | registry index (3 bits) |
// has-registration-date (1 bit). The top two bits must stay zero — a
// nonzero one is corruption, not a future extension.
constexpr std::uint8_t kHeadStatusMask = 0x03;
constexpr std::uint8_t kHeadRegistryShift = 2;
constexpr std::uint8_t kHeadRegistryMask = 0x07;
constexpr std::uint8_t kHeadHasDateBit = 0x20;
constexpr std::uint8_t kHeadReservedMask = 0xC0;

static_assert(static_cast<std::uint8_t>(dele::Status::kReserved) <=
                  kHeadStatusMask,
              "delegation status no longer fits the 2-bit head field");
static_assert(asn::kRirCount <= kHeadRegistryMask + 1,
              "registry index no longer fits the 3-bit head field");

/// Day values must survive the int64 arithmetic and land back in Day range.
bool day_in_range(std::int64_t value) noexcept {
  return value >= INT32_MIN && value <= INT32_MAX;
}

bool asn_in_range(std::int64_t value) noexcept {
  return value >= 0 && value <= 0xFFFFFFFFll;
}

}  // namespace

// -- snapshot codec (friend of Snapshot) -----------------------------------

namespace {

// Bit fields of the one-byte snapshot columns. Every other bit must be
// zero: a set one is corruption, not a future extension.
constexpr std::uint8_t kLifeOpenEnded = 0x01;     // admin: open_ended
constexpr std::uint8_t kLifeTransferred = 0x02;   // admin: transferred
constexpr std::uint8_t kLifeDormantSquat = 0x01;  // op: dormant_squat
constexpr std::uint8_t kLifeOutside = 0x02;       // op: outside_activity
constexpr std::uint8_t kSpanStatusMask = 0x03;    // span: status
constexpr std::uint8_t kSpanHasDate = 0x04;       // span: registration date

static_assert(static_cast<std::uint8_t>(dele::Status::kReserved) <=
                  kSpanStatusMask,
              "delegation status no longer fits the span head's 2 bits");

// Bytes per item of each column group, for the payload size and the count
// guards (a count whose items cannot fit in the rest is refused).
constexpr std::size_t kScalarBytes = 4 + 4 + 4 + 4 + 8 + 8;  // to the config
constexpr std::size_t kRowBytes = 4 + 4 + 4 + 2;
constexpr std::size_t kAdminBytes = 4 + 4 + 4 + 8 + 2 + 1 + 1 + 1;
constexpr std::size_t kOpBytes = 4 + 4 + 4 + 1 + 1;
constexpr std::size_t kKeyBytes = 4 + 4;
constexpr std::size_t kSpanBytes = 4 + 4 + 1 + 4 + 8 + 2;
constexpr std::size_t kRunBytes = 4 + 4;

constexpr std::uint8_t kMaxCategory =
    static_cast<std::uint8_t>(joint::Category::kOutsideDelegation);

std::uint32_t day_bits(util::Day day) noexcept {
  return static_cast<std::uint32_t>(day);
}

util::Day day_of(std::uint32_t bits) noexcept {
  return static_cast<util::Day>(bits);
}

/// Write a flat table's counts, keys and offsets; its values follow.
template <typename T>
void encode_keys(robust::CheckpointWriter& w, const util::FlatTable<T>& table) {
  const std::size_t keys = table.size();
  w.u32(static_cast<std::uint32_t>(keys));
  w.u32(static_cast<std::uint32_t>(table.values.size()));
  auto key = w.column<std::uint32_t>(keys);
  auto offset = w.column<std::uint32_t>(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    key.set(i, table.keys[i]);
    offset.set(i, table.offsets[i]);
  }
}

/// Read what `encode_keys` wrote into `table` and the value count into
/// `values`, reserving room for the caller to append them. Returns the
/// first layout violation — keys not strictly ascending, offsets not
/// strictly ascending from 0, a key without values — or nullptr (also when
/// the reader failed; the caller reports that).
template <typename T>
const char* decode_keys(robust::CheckpointReader& r, std::size_t value_bytes,
                        util::FlatTable<T>& table, std::uint32_t& values) {
  const std::uint32_t keys = r.count(kKeyBytes);
  values = r.count(value_bytes);
  if (r.ok() &&
      std::uint64_t{keys} * kKeyBytes + std::uint64_t{values} * value_bytes >
          r.remaining())
    return "table counts run past the payload";
  const auto key = r.column<std::uint32_t>(keys);
  const auto offset = r.column<std::uint32_t>(keys);
  if (!r.ok()) return nullptr;
  if ((keys == 0) != (values == 0)) return "table keys without values";
  table.keys.resize(keys);
  table.offsets.resize(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    table.keys[i] = key[i];
    table.offsets[i] = offset[i];
    if (i > 0 && table.keys[i - 1] >= table.keys[i])
      return "table keys not strictly ascending";
    if (i == 0 ? table.offsets[i] != 0
               : table.offsets[i - 1] >= table.offsets[i])
      return "table offsets not strictly ascending from 0";
  }
  if (keys > 0 && table.offsets.back() >= values)
    return "table offsets run past the values";
  table.values.reserve(values);
  return nullptr;
}

/// Whether each key's runs are valid and ordered: every run non-empty, each
/// starting more than `gap` days after the previous one ends.
template <typename T, typename Days>
bool runs_ordered(const util::FlatTable<T>& table, std::int64_t gap,
                  Days days) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::span<const T> row = table.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      const util::DayInterval& run = days(row[j]);
      if (run.first > run.last) return false;
      if (j > 0 && days(row[j - 1]).last + gap >= run.first) return false;
    }
  }
  return true;
}

}  // namespace

class SnapshotCodec {
 public:
  // Payload v3: fixed-width little-endian scalars and column arrays, in
  // this order (DESIGN.md §12 lists the columns and what a decode checks).
  static void encode(const Snapshot& snap, robust::CheckpointWriter& w) {
    const std::size_t rows = snap.rows_.size();
    const std::size_t admin = snap.admin_rows_.size();
    const std::size_t op = snap.op_rows_.size();
    std::size_t bytes = kScalarBytes + 4 + rows * kRowBytes + admin * kAdminBytes +
                        op * kOpBytes + 1;
    if (snap.working_.has_value()) {
      for (const restore::SpanTable& table : snap.working_->spans)
        bytes += 5 + 8 + table.size() * kKeyBytes +
                 table.values.size() * kSpanBytes;
      const lifetimes::RunTable& activity = snap.working_->activity;
      bytes += 8 + activity.size() * kKeyBytes +
               activity.values.size() * kRunBytes;
    }
    w.reserve(bytes);

    w.u32(kSnapshotFormatVersion);
    w.i32(snap.archive_end_);
    const SnapshotConfig& config = snap.config_;
    w.i32(config.op_timeout_days);
    w.i32(config.admin.transfer_gap_tolerance);
    w.i64(config.squat.dormancy_days);
    w.u64(std::bit_cast<std::uint64_t>(config.squat.max_relative_duration));

    // Rows; each row's lives are the next admin_count / op_count of the
    // life columns, so the begins and a life's ASN are implied.
    w.u32(static_cast<std::uint32_t>(rows));
    {
      auto asn = w.column<std::uint32_t>(rows);
      auto admin_count = w.column<std::uint32_t>(rows);
      auto op_count = w.column<std::uint32_t>(rows);
      auto flags = w.column<std::uint16_t>(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        const AsnRow& row = snap.rows_[i];
        asn.set(i, row.asn.value);
        admin_count.set(i, row.admin_count);
        op_count.set(i, row.op_count);
        flags.set(i, row.flags);
      }
    }
    {
      auto registration = w.column<std::uint32_t>(admin);
      auto first = w.column<std::uint32_t>(admin);
      auto last = w.column<std::uint32_t>(admin);
      auto opaque = w.column<std::uint64_t>(admin);
      auto country = w.column<std::uint16_t>(admin);
      auto registry = w.column<std::uint8_t>(admin);
      auto category = w.column<std::uint8_t>(admin);
      auto bits = w.column<std::uint8_t>(admin);
      for (std::size_t i = 0; i < admin; ++i) {
        const AdminLifeRow& row = snap.admin_rows_[i];
        registration.set(i, day_bits(row.life.registration_date));
        first.set(i, day_bits(row.life.days.first));
        last.set(i, day_bits(row.life.days.last));
        opaque.set(i, row.life.opaque_id);
        country.set(i, row.life.country.packed());
        registry.set(i, static_cast<std::uint8_t>(
                            asn::index_of(row.life.registry)));
        category.set(i, static_cast<std::uint8_t>(row.category));
        bits.set(i, static_cast<std::uint8_t>(
                        (row.life.open_ended ? kLifeOpenEnded : 0) |
                        (row.life.transferred ? kLifeTransferred : 0)));
      }
    }
    {
      auto first = w.column<std::uint32_t>(op);
      auto last = w.column<std::uint32_t>(op);
      auto admin_index = w.column<std::uint32_t>(op);
      auto category = w.column<std::uint8_t>(op);
      auto bits = w.column<std::uint8_t>(op);
      for (std::size_t i = 0; i < op; ++i) {
        const OpLifeRow& row = snap.op_rows_[i];
        first.set(i, day_bits(row.life.days.first));
        last.set(i, day_bits(row.life.days.last));
        admin_index.set(i, static_cast<std::uint32_t>(row.admin_index));
        category.set(i, static_cast<std::uint8_t>(row.category));
        bits.set(i, static_cast<std::uint8_t>(
                        (row.dormant_squat ? kLifeDormantSquat : 0) |
                        (row.outside_activity ? kLifeOutside : 0)));
      }
    }

    w.boolean(snap.working_.has_value());
    if (!snap.working_.has_value()) return;
    const Snapshot::WorkingSet& working = *snap.working_;
    for (std::size_t reg = 0; reg < asn::kRirCount; ++reg) {
      w.boolean(working.first_observed[reg].has_value());
      w.i32(working.first_observed[reg].value_or(0));
      const restore::SpanTable& table = working.spans[reg];
      encode_keys(w, table);
      const std::size_t spans = table.values.size();
      auto first = w.column<std::uint32_t>(spans);
      auto last = w.column<std::uint32_t>(spans);
      auto head = w.column<std::uint8_t>(spans);
      auto registration = w.column<std::uint32_t>(spans);
      auto opaque = w.column<std::uint64_t>(spans);
      auto country = w.column<std::uint16_t>(spans);
      for (std::size_t i = 0; i < spans; ++i) {
        const restore::StateSpan& span = table.values[i];
        first.set(i, day_bits(span.days.first));
        last.set(i, day_bits(span.days.last));
        head.set(i, static_cast<std::uint8_t>(
                        static_cast<std::uint8_t>(span.state.status) |
                        (span.state.registration_date ? kSpanHasDate : 0)));
        registration.set(i, day_bits(span.state.registration_date.value_or(0)));
        opaque.set(i, span.state.opaque_id);
        country.set(i, span.state.country.packed());
      }
    }
    const lifetimes::RunTable& activity = working.activity;
    encode_keys(w, activity);
    auto first = w.column<std::uint32_t>(activity.values.size());
    auto last = w.column<std::uint32_t>(activity.values.size());
    for (std::size_t i = 0; i < activity.values.size(); ++i) {
      first.set(i, day_bits(activity.values[i].first));
      last.set(i, day_bits(activity.values[i].last));
    }
  }

  /// Decode and check everything but the derived indexes (`index`).
  static pl::StatusOr<Snapshot> decode(robust::CheckpointReader& r) {
    const std::uint32_t version = r.u32();
    if (r.ok() && version != kSnapshotFormatVersion)
      return pl::data_loss_error("snapshot format version skew");

    // The first violation wins (a null one is none); the reader's own
    // failures (a column or count past the payload) are reported as such.
    const char* bad = nullptr;
    const auto reject = [&bad](const char* why) {
      if (bad == nullptr) bad = why;
    };
    const auto failed = [&] { return bad != nullptr || !r.ok(); };

    Snapshot snap;
    snap.archive_end_ = r.i32();
    snap.config_.op_timeout_days = r.i32();
    snap.config_.admin.transfer_gap_tolerance = r.i32();
    snap.config_.squat.dormancy_days = r.i64();
    snap.config_.squat.max_relative_duration = std::bit_cast<double>(r.u64());

    const std::uint32_t rows = r.count(kRowBytes);
    std::uint64_t admin = 0;
    std::uint64_t op = 0;
    {
      const auto asn = r.column<std::uint32_t>(rows);
      const auto admin_count = r.column<std::uint32_t>(rows);
      const auto op_count = r.column<std::uint32_t>(rows);
      const auto flags = r.column<std::uint16_t>(rows);
      if (failed()) return failure(r, bad);
      snap.rows_.reserve(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        AsnRow& row = snap.rows_.emplace_back();
        row.asn = asn::Asn{asn[i]};
        row.admin_begin = static_cast<std::uint32_t>(admin);
        row.admin_count = admin_count[i];
        row.op_begin = static_cast<std::uint32_t>(op);
        row.op_count = op_count[i];
        row.flags = flags[i];
        admin += row.admin_count;
        op += row.op_count;
        if (i > 0 && !(snap.rows_[i - 1].asn < row.asn))
          reject("snapshot rows not sorted by ASN");
      }
    }
    if (!failed() && admin * kAdminBytes + op * kOpBytes > r.remaining())
      reject("snapshot life counts run past the payload");
    if (failed()) return failure(r, bad);

    {
      const auto registration = r.column<std::uint32_t>(admin);
      const auto first = r.column<std::uint32_t>(admin);
      const auto last = r.column<std::uint32_t>(admin);
      const auto opaque = r.column<std::uint64_t>(admin);
      const auto country = r.column<std::uint16_t>(admin);
      const auto registry = r.column<std::uint8_t>(admin);
      const auto category = r.column<std::uint8_t>(admin);
      const auto bits = r.column<std::uint8_t>(admin);
      if (failed()) return failure(r, bad);
      snap.admin_rows_.reserve(admin);
      for (std::size_t i = 0; i < admin; ++i) {
        AdminLifeRow& row = snap.admin_rows_.emplace_back();
        row.life.registration_date = day_of(registration[i]);
        row.life.days = {day_of(first[i]), day_of(last[i])};
        row.life.opaque_id = opaque[i];
        if (const auto code = asn::CountryCode::from_packed(country[i]))
          row.life.country = *code;
        else
          reject("bad country code in snapshot");
        if (registry[i] < asn::kRirCount)
          row.life.registry = asn::kAllRirs[registry[i]];
        else
          reject("registry out of range");
        if (category[i] > kMaxCategory)
          reject("taxonomy category out of range");
        row.category = static_cast<joint::Category>(category[i]);
        if ((bits[i] & ~(kLifeOpenEnded | kLifeTransferred)) != 0)
          reject("admin life bits out of range");
        row.life.open_ended = (bits[i] & kLifeOpenEnded) != 0;
        row.life.transferred = (bits[i] & kLifeTransferred) != 0;
      }
    }
    {
      const auto first = r.column<std::uint32_t>(op);
      const auto last = r.column<std::uint32_t>(op);
      const auto admin_index = r.column<std::uint32_t>(op);
      const auto category = r.column<std::uint8_t>(op);
      const auto bits = r.column<std::uint8_t>(op);
      if (failed()) return failure(r, bad);
      snap.op_rows_.reserve(op);
      for (std::size_t i = 0; i < op; ++i) {
        OpLifeRow& row = snap.op_rows_.emplace_back();
        row.life.days = {day_of(first[i]), day_of(last[i])};
        row.admin_index = static_cast<std::int32_t>(admin_index[i]);
        if (category[i] > kMaxCategory)
          reject("taxonomy category out of range");
        row.category = static_cast<joint::Category>(category[i]);
        if ((bits[i] & ~(kLifeDormantSquat | kLifeOutside)) != 0)
          reject("op life bits out of range");
        row.dormant_squat = (bits[i] & kLifeDormantSquat) != 0;
        row.outside_activity = (bits[i] & kLifeOutside) != 0;
      }
    }
    for (const AsnRow& row : snap.rows_) {
      for (AdminLifeRow& life : std::span(snap.admin_rows_).subspan(
               row.admin_begin, row.admin_count))
        life.life.asn = row.asn;
      for (OpLifeRow& life :
           std::span(snap.op_rows_).subspan(row.op_begin, row.op_count)) {
        life.life.asn = row.asn;
        if (life.admin_index < -1 ||
            life.admin_index >= static_cast<std::int64_t>(row.admin_count))
          reject("op life admin index outside its ASN's lives");
      }
    }
    if (failed()) return failure(r, bad);

    if (r.boolean()) {
      Snapshot::WorkingSet& working = snap.working_.emplace();
      for (std::size_t reg = 0; reg < asn::kRirCount && !failed(); ++reg) {
        const bool has_first = r.boolean();
        const util::Day first_observed = r.i32();
        if (has_first)
          working.first_observed[reg] = first_observed;
        else if (first_observed != 0)
          reject("first observed day without its flag");
        restore::SpanTable& table = working.spans[reg];
        std::uint32_t spans = 0;
        reject(decode_keys(r, kSpanBytes, table, spans));
        const auto first = r.column<std::uint32_t>(spans);
        const auto last = r.column<std::uint32_t>(spans);
        const auto head = r.column<std::uint8_t>(spans);
        const auto registration = r.column<std::uint32_t>(spans);
        const auto opaque = r.column<std::uint64_t>(spans);
        const auto country = r.column<std::uint16_t>(spans);
        if (failed()) break;
        for (std::size_t i = 0; i < spans; ++i) {
          restore::StateSpan& span = table.values.emplace_back();
          span.days = {day_of(first[i]), day_of(last[i])};
          if ((head[i] & ~(kSpanStatusMask | kSpanHasDate)) != 0)
            reject("span head bits out of range");
          span.state.status =
              static_cast<dele::Status>(head[i] & kSpanStatusMask);
          if ((head[i] & kSpanHasDate) != 0)
            span.state.registration_date = day_of(registration[i]);
          else if (registration[i] != 0)
            reject("span registration date without its head bit");
          span.state.opaque_id = opaque[i];
          if (const auto code = asn::CountryCode::from_packed(country[i]))
            span.state.country = *code;
          else
            reject("bad country code in snapshot");
        }
        if (!runs_ordered(table, 0, span_days))
          reject("snapshot spans empty or overlapping");
      }
      lifetimes::RunTable& activity = working.activity;
      std::uint32_t runs = 0;
      if (!failed()) reject(decode_keys(r, kRunBytes, activity, runs));
      const auto first = r.column<std::uint32_t>(runs);
      const auto last = r.column<std::uint32_t>(runs);
      if (!failed()) {
        for (std::size_t i = 0; i < runs; ++i)
          activity.values.push_back({day_of(first[i]), day_of(last[i])});
        if (!runs_ordered(activity, 1, run_days))
          reject("snapshot activity runs empty, overlapping or adjacent");
      }
    }
    if (failed() || !r.at_end()) return failure(r, bad);
    return snap;
  }

  /// The derived serving indexes of a decoded snapshot.
  static void index(Snapshot& snap) { snap.rebuild_indexes(); }

 private:
  static constexpr auto span_days = [](const auto& span) -> const auto& {
    return span.days;
  };
  static constexpr auto run_days = [](const auto& run) -> const auto& {
    return run;
  };

  static pl::Status failure(const robust::CheckpointReader& r,
                            const char* bad) {
    if (bad != nullptr) return pl::data_loss_error(bad);
    return pl::data_loss_error("snapshot failed to decode: " +
                               std::string(r.ok() ? "trailing bytes"
                                                  : r.error()));
  }
};

// -- snapshot persistence --------------------------------------------------

namespace {

/// Decode a snapshot frame, opening `verify` (frame and CRC), `decode`
/// (columns and checks) and `index` (derived indexes) under `span`.
pl::StatusOr<Snapshot> decode_frame(std::string_view frame, obs::Span* span) {
  obs::Span verify = obs::child_of(span, "verify");
  robust::CheckpointReader reader(frame);
  verify.finish();
  if (!reader.ok())
    return pl::data_loss_error("snapshot rejected: " +
                               std::string(reader.error()));
  obs::Span decode = obs::child_of(span, "decode");
  pl::StatusOr<Snapshot> snap = SnapshotCodec::decode(reader);
  decode.finish();
  if (!snap.ok()) return snap;
  obs::Span index = obs::child_of(span, "index");
  SnapshotCodec::index(*snap);
  index.note("rows", static_cast<std::int64_t>(snap->asn_count()));
  return snap;
}

}  // namespace

std::string encode_snapshot(const Snapshot& snapshot) {
  robust::CheckpointWriter writer;
  SnapshotCodec::encode(snapshot, writer);
  return std::move(writer).finish();
}

pl::StatusOr<Snapshot> decode_snapshot(std::string_view frame) {
  return decode_frame(frame, nullptr);
}

pl::Status save_snapshot(const Snapshot& snapshot, const std::string& path,
                         robust::CrashPoints* crash, obs::Span* span) {
  obs::Span encode = obs::child_of(span, "encode");
  const std::string frame = encode_snapshot(snapshot);
  encode.note("bytes", static_cast<std::int64_t>(frame.size()));
  encode.finish();

  obs::Span write = obs::child_of(span, "write");
  const std::string tmp = path + ".tmp";
  if (crash != nullptr && crash->fire("durable.checkpoint.before_tmp"))
    return crash_status("durable.checkpoint.before_tmp");
  if (crash != nullptr && crash->fire("durable.checkpoint.torn_tmp")) {
    // Simulated process death halfway through the temp write: bytes land,
    // the rename never happens. The previous snapshot must stay intact.
    const pl::Status torn =
        write_file(tmp, std::string_view(frame).substr(0, frame.size() / 2));
    if (!torn.ok()) return torn;
    return crash_status("durable.checkpoint.torn_tmp");
  }
  const pl::Status written = write_file(tmp, frame);
  if (!written.ok()) return written;
  if (crash != nullptr && crash->fire("durable.checkpoint.after_tmp"))
    return crash_status("durable.checkpoint.after_tmp");
  write.finish();

  obs::Span rename = obs::child_of(span, "rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return pl::unavailable_error("rename failed: " + tmp + " -> " + path);
  if (crash != nullptr && crash->fire("durable.checkpoint.after_rename"))
    return crash_status("durable.checkpoint.after_rename");
  return {};
}

pl::StatusOr<Snapshot> open_snapshot(const std::string& path,
                                     obs::Span* span) {
  obs::Span read = obs::child_of(span, "read");
  auto file = robust::read_file(path);
  if (file.ok()) read.note("bytes", static_cast<std::int64_t>(file->size()));
  read.finish();
  if (!file.ok()) return file.status();
  return decode_frame(*file, span);
}

// -- day-delta codec -------------------------------------------------------

std::string encode_day_delta(const DayDelta& delta) {
  // Number the country codes in first-seen order (a per-frame table) so
  // each fact references one by a single varint id; 0 = unknown country,
  // whose packed code 0 never gets an id.
  std::vector<std::uint32_t> country_id(std::size_t{1} << 16);
  std::vector<asn::CountryCode> countries;
  for (const DelegationFact& fact : delta.delegation) {
    const asn::CountryCode country = fact.state.country;
    std::uint32_t& id = country_id[country.packed()];
    if (id == 0 && !country.unknown()) {
      countries.push_back(country);
      id = static_cast<std::uint32_t>(countries.size());
    }
  }

  robust::CheckpointWriter w;
  w.varint(kDayDeltaFormatVersion);
  w.varint(zigzag(delta.day));
  w.varint(countries.size());
  for (const asn::CountryCode country : countries) w.str(country.to_string());

  w.varint(delta.delegation.size());
  std::int64_t prev_asn = 0;
  for (const DelegationFact& fact : delta.delegation) {
    const dele::RecordState& state = fact.state;
    const std::uint8_t head = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(state.status) |
        (static_cast<std::uint8_t>(asn::index_of(fact.registry))
         << kHeadRegistryShift) |
        (state.registration_date.has_value() ? kHeadHasDateBit : 0));
    w.u8(head);
    w.varint(zigzag(static_cast<std::int64_t>(fact.asn.value) - prev_asn));
    prev_asn = fact.asn.value;
    if (state.registration_date.has_value())
      w.varint(zigzag(static_cast<std::int64_t>(*state.registration_date) -
                      delta.day));
    w.varint(country_id[state.country.packed()]);
    w.varint(state.opaque_id);
  }

  w.varint(delta.active.size());
  std::int64_t prev_active = 0;
  for (const asn::Asn active : delta.active) {
    w.varint(zigzag(static_cast<std::int64_t>(active.value) - prev_active));
    prev_active = active.value;
  }
  return std::move(w).finish();
}

pl::StatusOr<DayDelta> decode_day_delta(std::string_view frame) {
  robust::CheckpointReader r(frame);
  if (!r.ok())
    return pl::data_loss_error("day delta rejected: " +
                               std::string(r.error()));
  const std::uint64_t version = r.varint();
  if (r.ok() && version != kDayDeltaFormatVersion)
    return pl::data_loss_error("day delta format version skew");

  DayDelta delta;
  const std::int64_t day = unzigzag(r.varint());
  if (r.ok() && !day_in_range(day))
    return pl::data_loss_error("day delta day out of range");
  delta.day = static_cast<util::Day>(day);

  const std::uint64_t country_count = r.container_size(1);
  std::vector<asn::CountryCode> countries;
  countries.reserve(country_count);
  for (std::uint64_t i = 0; r.ok() && i < country_count; ++i) {
    const std::string_view token = r.str();
    const std::optional<asn::CountryCode> parsed =
        asn::CountryCode::parse(token);
    if (!r.ok() || !parsed.has_value() || parsed->unknown())
      return pl::data_loss_error("bad country token in day delta");
    countries.push_back(*parsed);
  }

  const std::uint64_t facts = r.container_size(4);
  delta.delegation.reserve(facts);
  std::int64_t prev_asn = 0;
  for (std::uint64_t i = 0; r.ok() && i < facts; ++i) {
    DelegationFact fact;
    const std::uint8_t head = r.u8();
    if (r.ok() && (head & kHeadReservedMask) != 0)
      return pl::data_loss_error("day delta head byte has reserved bits");
    fact.state.status = static_cast<dele::Status>(head & kHeadStatusMask);
    const std::uint8_t registry =
        (head >> kHeadRegistryShift) & kHeadRegistryMask;
    if (r.ok() && registry >= asn::kRirCount)
      return pl::data_loss_error("day delta registry out of range");
    fact.registry = asn::kAllRirs[registry % asn::kRirCount];
    const std::int64_t asn_value = prev_asn + unzigzag(r.varint());
    if (r.ok() && !asn_in_range(asn_value))
      return pl::data_loss_error("day delta ASN out of range");
    fact.asn = asn::Asn{static_cast<std::uint32_t>(asn_value)};
    prev_asn = asn_value;
    if ((head & kHeadHasDateBit) != 0) {
      const std::int64_t date =
          static_cast<std::int64_t>(delta.day) + unzigzag(r.varint());
      if (r.ok() && !day_in_range(date))
        return pl::data_loss_error("day delta registration date out of range");
      fact.state.registration_date = static_cast<util::Day>(date);
    }
    const std::uint64_t country_id = r.varint();
    if (r.ok() && country_id > countries.size())
      return pl::data_loss_error("day delta country id out of range");
    if (country_id != 0 && country_id <= countries.size())
      fact.state.country = countries[country_id - 1];
    fact.state.opaque_id = r.varint();
    delta.delegation.push_back(fact);
  }

  const std::uint64_t active = r.container_size(1);
  delta.active.reserve(active);
  std::int64_t prev_active = 0;
  for (std::uint64_t i = 0; r.ok() && i < active; ++i) {
    const std::int64_t value = prev_active + unzigzag(r.varint());
    if (r.ok() && !asn_in_range(value))
      return pl::data_loss_error("day delta active ASN out of range");
    delta.active.push_back(asn::Asn{static_cast<std::uint32_t>(value)});
    prev_active = value;
  }
  if (!r.ok() || !r.at_end())
    return pl::data_loss_error("day delta failed to decode: " +
                               std::string(r.error()));
  return delta;
}

// -- write-ahead log -------------------------------------------------------

pl::Status append_wal(const std::string& path, const DayDelta& delta,
                      robust::CrashPoints* crash) {
  const std::string frame = encode_day_delta(delta);

  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out.is_open())
    return pl::unavailable_error("cannot open WAL " + path + " for append");
  if (crash != nullptr && crash->fire("durable.wal.torn_append")) {
    // Simulated crash mid-append: half a frame lands. Replay must drop it
    // as a torn tail — this day was never acknowledged as durable.
    out.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
    out.flush();
    return crash_status("durable.wal.torn_append");
  }
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out.good())
    return pl::unavailable_error("WAL append failed: " + path);
  return {};
}

pl::StatusOr<WalReplay> replay_wal(const std::string& path) {
  auto file = robust::read_file(path);
  if (!file.ok()) return file.status();
  std::string_view wal = *file;

  WalReplay replay;
  while (!wal.empty()) {
    const std::optional<std::size_t> length = robust::frame_length(wal);
    if (!length.has_value()) {
      // Torn or unrecognizable header, or the final append never completed
      // (or its length is garbage): no next frame boundary can be found,
      // so the rest of the file is unrecoverable.
      replay.torn_tail = true;
      replay.dropped_bytes += static_cast<std::int64_t>(wal.size());
      break;
    }
    auto delta = decode_day_delta(wal.substr(0, *length));
    wal.remove_prefix(*length);
    if (!delta.ok()) {
      ++replay.corrupt_records;  // CRC/version/decode failure; boundary known
      continue;
    }
    ++replay.valid_records;
    replay.deltas.push_back(std::move(*delta));
  }
  return replay;
}

// -- retry -----------------------------------------------------------------

pl::StatusOr<Snapshot> load_with_retry(const SnapshotLoader& loader,
                                       const RetryPolicy& policy,
                                       int* attempts) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  pl::StatusOr<Snapshot> result = pl::internal_error("retry loop never ran");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempts != nullptr) *attempts = attempt;
    result = loader();
    if (result.ok() || result.status().code() != pl::StatusCode::kUnavailable)
      return result;
  }
  return result;
}

// -- the durable service ---------------------------------------------------

const std::vector<std::string_view> kAdvanceCrashSites = {
    "durable.advance.before_append",  "durable.wal.torn_append",
    "durable.advance.after_append",   "durable.advance.after_fold",
    "durable.checkpoint.before_tmp",  "durable.checkpoint.torn_tmp",
    "durable.checkpoint.after_tmp",   "durable.checkpoint.after_rename",
};

DurableService::DurableService(DurableConfig config)
    : config_(std::move(config)),
      metrics_(std::make_unique<obs::Registry>()),
      trace_(std::make_unique<obs::Trace>()),
      root_(trace_->root("serve.durable")),
      flight_(std::make_unique<obs::FlightRecorder>(config_.flight_capacity)) {
}

void DurableService::record_flight(obs::EventKind kind, std::uint32_t detail,
                                   std::int64_t a) noexcept {
  flight_->record(
      obs::FlightEvent{0, static_cast<std::uint32_t>(kind), detail, a, 0});
}

void DurableService::dump_flight() noexcept {
  // Best effort on purpose: every dump site is already handling a failure,
  // and a dump that cannot be written must not mask the original error.
  static_cast<void>(write_flight(flight_path(), *flight_));
}

void DurableService::note_crash() {
  const std::string& site = config_.crash->fired_site();
  record_flight(obs::EventKind::kCrash, util::crc32(site), archive_end());
  dump_flight();
}

void DurableService::note_degraded() {
  // May fire during open_impl before the QueryService exists (a rejected
  // snapshot degrades the service before anything serves).
  const std::int64_t day =
      service_ != nullptr ? archive_end() : health_.snapshot_day;
  record_flight(obs::EventKind::kDegraded,
                health_.snapshot_rejected ? 1u : 0u, day);
  dump_flight();
}

// pl-lint: allow(query-path-untraced) static factory: open_impl below opens
// the serve.durable.open span and records the kOpen flight event.
pl::StatusOr<DurableService> DurableService::open(Snapshot bootstrap,
                                                  DurableConfig config) {
  if (config.dir.empty())
    return pl::invalid_argument_error("DurableConfig.dir is empty");
  DurableService service(std::move(config));
  pl::Status opened = service.open_impl(std::move(bootstrap));
  if (!opened.ok()) return opened;
  return service;
}

pl::Status DurableService::open_impl(Snapshot bootstrap) {
  obs::Span span = root_.child("serve.durable.open");
  const std::string spath = snapshot_path();

  Snapshot base;
  bool from_disk = false;
  if (config_.loader != nullptr || file_exists(spath)) {
    const SnapshotLoader loader =
        config_.loader != nullptr
            ? config_.loader
            : [&spath, &span] { return open_snapshot(spath, &span); };
    int attempts = 0;
    auto loaded = load_with_retry(loader, config_.retry, &attempts);
    health_.load_attempts = attempts;
    metrics_->counter("pl_serve_snapshot_load_attempts").add(attempts);
    if (loaded.ok()) {
      base = std::move(*loaded);
      from_disk = true;
    } else if (loaded.status().code() == pl::StatusCode::kDataLoss) {
      // A corrupt snapshot is rejected, never loaded; serve the bootstrap
      // state instead and say so. The bad file stays for forensics until
      // the next checkpoint replaces it atomically.
      health_.snapshot_rejected = true;
      health_.degraded = true;
      health_.last_error = std::string(loaded.status().message());
      metrics_->counter("pl_serve_snapshot_rejected").add(1);
      note_degraded();
      base = std::move(bootstrap);
    } else if (loaded.status().code() == pl::StatusCode::kNotFound) {
      base = std::move(bootstrap);
    } else {
      return loaded.status();  // unavailable even after retries: hard fail
    }
  } else {
    base = std::move(bootstrap);
  }

  if (!from_disk && !health_.snapshot_rejected) {
    // First open of this directory: persist the base state so a crash
    // before the first checkpoint still has something to recover from.
    pl::Status saved = save_snapshot(base, spath);
    if (!saved.ok()) return saved;
  }
  health_.snapshot_day = base.archive_end();
  span.note("snapshot_day", health_.snapshot_day);

  service_ =
      std::make_unique<QueryService>(std::move(base), flight_.get());

  if (config_.history != nullptr) {
    // Seed (or re-anchor) the history at the recovered base state so the
    // WAL days replayed below extend it contiguously. A store that already
    // ends exactly at the base day is kept — the warm-restart case.
    if (config_.history->empty() ||
        config_.history->latest_day() != archive_end()) {
      pl::Status seeded = config_.history->reset(service_->snapshot());
      if (!seeded.ok()) {
        // History is derived, rebuildable state: detach and keep serving.
        metrics_->counter("pl_serve_history_append_failures").add(1);
        health_.last_error = std::string(seeded.message());
        config_.history = nullptr;
      }
    }
    if (config_.history != nullptr) service_->attach_history(config_.history);
  }

  const std::string wpath = wal_path();
  if (file_exists(wpath)) {
    obs::Span replay_span = root_.child("serve.durable.replay");
    auto replay = replay_wal(wpath);
    if (!replay.ok()) return replay.status();
    health_.wal_corrupt_records = replay->corrupt_records;
    health_.wal_dropped_bytes = replay->dropped_bytes;
    health_.wal_torn_tail = replay->torn_tail;
    if (replay->corrupt_records > 0) {
      health_.degraded = true;
      if (health_.last_error.empty())
        health_.last_error = "corrupt WAL records dropped on replay";
      note_degraded();
    }
    metrics_->counter("pl_serve_wal_corrupt_records")
        .add(replay->corrupt_records);
    metrics_->counter("pl_serve_wal_dropped_bytes")
        .add(replay->dropped_bytes);
    for (const DayDelta& delta : replay->deltas) {
      if (delta.day <= archive_end()) continue;  // already in the snapshot
      ++health_.wal_records;  // live: not yet covered by the snapshot file
      pl::Status folded = service_->advance_day(delta);
      if (!folded.ok()) {
        quarantine(delta.day, folded);
        continue;
      }
      record_flight(obs::EventKind::kReplayDay, 0, delta.day);
      ++health_.replayed_days;
      append_history(delta);
    }
    metrics_->counter("pl_serve_wal_replayed_days")
        .add(health_.replayed_days);
    replay_span.note("replayed_days", health_.replayed_days);
    replay_span.note("corrupt_records", health_.wal_corrupt_records);
    replay_span.note("torn_tail", health_.wal_torn_tail ? 1 : 0);
  }

  days_since_checkpoint_ = static_cast<int>(health_.replayed_days);
  refresh_gauges();
  record_flight(obs::EventKind::kOpen, health_.degraded ? 1u : 0u,
                archive_end());
  span.note("replayed_days", health_.replayed_days);
  span.note("degraded", health_.degraded ? 1 : 0);
  return {};
}

pl::Status DurableService::advance_day(const DayDelta& delta) {
  if (crashed_)
    return pl::failed_precondition_error(
        "durable service crashed (injected); reopen from disk");
  obs::Span span = root_.child("serve.durable.advance_day");
  span.note("day", delta.day);

  // Validate the sequence BEFORE the append: a mis-sequenced delta must
  // never land in the WAL, where replay would choke on it forever.
  if (delta.day != archive_end() + 1) {
    metrics_->counter("pl_serve_advance_rejected").add(1);
    return pl::invalid_argument_error(
        "advance_day expects day " + std::to_string(archive_end() + 1) +
        ", got " + std::to_string(delta.day));
  }

  if (crash_here("durable.advance.before_append"))
    return crash_status("durable.advance.before_append");

  pl::Status appended = append_wal(wal_path(), delta, config_.crash);
  if (!appended.ok()) {
    if (config_.crash != nullptr && config_.crash->fired()) {
      crashed_ = true;
      note_crash();
    }
    return appended;
  }
  metrics_->counter("pl_serve_wal_appends").add(1);
  ++health_.wal_records;

  if (crash_here("durable.advance.after_append"))
    return crash_status("durable.advance.after_append");

  pl::Status folded = service_->advance_day(delta);
  if (!folded.ok()) {
    quarantine(delta.day, folded);
    refresh_gauges();
    return folded;
  }

  if (crash_here("durable.advance.after_fold"))
    return crash_status("durable.advance.after_fold");

  append_history(delta);
  record_flight(obs::EventKind::kAdvance, 0, delta.day);
  ++days_since_checkpoint_;
  if (config_.checkpoint_every_days > 0 &&
      days_since_checkpoint_ >= config_.checkpoint_every_days) {
    pl::Status checkpointed = checkpoint_impl(span);
    if (!checkpointed.ok()) {
      if (crashed_) return checkpointed;
      // A failed checkpoint is not data loss: every folded day is still in
      // the WAL. Record it, keep serving, retry at the next boundary.
      metrics_->counter("pl_serve_checkpoint_failures").add(1);
      health_.last_error = std::string(checkpointed.message());
    }
  }
  refresh_gauges();
  return {};
}

pl::Status DurableService::checkpoint() {
  if (crashed_)
    return pl::failed_precondition_error(
        "durable service crashed (injected); reopen from disk");
  pl::Status status = checkpoint_impl(root_);
  refresh_gauges();
  return status;
}

pl::Status DurableService::checkpoint_impl(obs::Span& parent) {
  obs::Span span = parent.child("serve.durable.checkpoint");
  span.note("day", archive_end());
  pl::Status saved = save_snapshot(service_->snapshot(), snapshot_path(),
                                   config_.crash, &span);
  if (!saved.ok()) {
    if (config_.crash != nullptr && config_.crash->fired()) {
      crashed_ = true;
      note_crash();
    }
    return saved;
  }
  // The snapshot now covers everything; truncate the WAL. A crash between
  // the rename above and this truncate is benign — replay skips records
  // at or before the snapshot's day.
  pl::Status truncated = write_file(wal_path(), {});
  if (!truncated.ok()) return truncated;
  metrics_->counter("pl_serve_snapshot_saves").add(1);
  record_flight(obs::EventKind::kCheckpoint, 0, archive_end());
  health_.snapshot_day = archive_end();
  health_.wal_records = 0;
  days_since_checkpoint_ = 0;
  return {};
}

void DurableService::append_history(const DayDelta& delta) {
  if (config_.history == nullptr) return;
  pl::Status appended =
      config_.history->append_day(delta, service_->snapshot());
  if (appended.ok()) {
    metrics_->counter("pl_serve_history_appends").add(1);
    return;
  }
  metrics_->counter("pl_serve_history_append_failures").add(1);
  health_.last_error = std::string(appended.message());
}

void DurableService::quarantine(util::Day day, const pl::Status& why) {
  health_.quarantined_days.push_back(day);
  health_.degraded = true;
  health_.last_error = std::string(why.message());
  metrics_->counter("pl_serve_quarantined_days").add(1);
  record_flight(obs::EventKind::kQuarantine,
                static_cast<std::uint32_t>(why.code()), day);
  note_degraded();
}

bool DurableService::crash_here(std::string_view site) {
  if (config_.crash == nullptr || !config_.crash->fire(site)) return false;
  crashed_ = true;
  note_crash();
  return true;
}

void DurableService::refresh_gauges() {
  metrics_->gauge("pl_serve_degraded").set(health_.degraded ? 1 : 0);
  metrics_->gauge("pl_serve_last_durable_day").set(archive_end());
  metrics_->gauge("pl_serve_snapshot_day").set(health_.snapshot_day);
}

HealthReport DurableService::health() const {
  HealthReport report = health_;
  // The WAL-before-fold invariant makes every folded day durable, so the
  // served archive end IS the last durable day.
  report.last_durable_day = archive_end();
  return report;
}

obs::Report DurableService::report() const {
  return {trace_->tree(), metrics_->snapshot()};
}

}  // namespace pl::serve
