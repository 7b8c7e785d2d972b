#include "serve/durable.hpp"

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

// -- scalar codecs ---------------------------------------------------------

void encode_double(robust::CheckpointWriter& w, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  w.u64(bits);
}

double decode_double(robust::CheckpointReader& r) {
  const std::uint64_t bits = r.u64();
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void encode_country(robust::CheckpointWriter& w, asn::CountryCode country) {
  w.boolean(!country.unknown());
  if (!country.unknown()) w.str(country.to_string());
}

pl::StatusOr<asn::CountryCode> decode_country(robust::CheckpointReader& r) {
  if (!r.boolean()) return asn::CountryCode{};
  const std::string_view text = r.str();
  const std::optional<asn::CountryCode> parsed = asn::CountryCode::parse(text);
  if (!r.ok() || !parsed.has_value())
    return pl::data_loss_error("bad country code in snapshot");
  return *parsed;
}

pl::StatusOr<asn::Rir> decode_rir(robust::CheckpointReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw >= asn::kRirCount)
    return pl::data_loss_error("registry out of range");
  return asn::kAllRirs[raw];
}

pl::StatusOr<joint::Category> decode_category(robust::CheckpointReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(joint::Category::kOutsideDelegation))
    return pl::data_loss_error("taxonomy category out of range");
  return static_cast<joint::Category>(raw);
}

void encode_record_state(robust::CheckpointWriter& w,
                         const dele::RecordState& state) {
  w.u8(static_cast<std::uint8_t>(state.status));
  w.boolean(state.registration_date.has_value());
  if (state.registration_date.has_value()) w.i32(*state.registration_date);
  encode_country(w, state.country);
  w.u64(state.opaque_id);
}

pl::StatusOr<dele::RecordState> decode_record_state(
    robust::CheckpointReader& r) {
  dele::RecordState state;
  const std::uint8_t raw_status = r.u8();
  if (raw_status > static_cast<std::uint8_t>(dele::Status::kReserved))
    return pl::data_loss_error("delegation status out of range");
  state.status = static_cast<dele::Status>(raw_status);
  if (r.boolean()) state.registration_date = r.i32();
  auto country = decode_country(r);
  if (!country.ok()) return country.status();
  state.country = *country;
  state.opaque_id = r.u64();
  return state;
}

void encode_admin_life(robust::CheckpointWriter& w,
                       const lifetimes::AdminLifetime& life) {
  w.u32(life.asn.value);
  w.i32(life.registration_date);
  w.i32(life.days.first);
  w.i32(life.days.last);
  w.u8(static_cast<std::uint8_t>(asn::index_of(life.registry)));
  encode_country(w, life.country);
  w.u64(life.opaque_id);
  w.boolean(life.open_ended);
  w.boolean(life.transferred);
}

pl::StatusOr<lifetimes::AdminLifetime> decode_admin_life(
    robust::CheckpointReader& r) {
  lifetimes::AdminLifetime life;
  life.asn = asn::Asn{r.u32()};
  life.registration_date = r.i32();
  life.days.first = r.i32();
  life.days.last = r.i32();
  auto rir = decode_rir(r);
  if (!rir.ok()) return rir.status();
  life.registry = *rir;
  auto country = decode_country(r);
  if (!country.ok()) return country.status();
  life.country = *country;
  life.opaque_id = r.u64();
  life.open_ended = r.boolean();
  life.transferred = r.boolean();
  return life;
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

class SnapshotCodec {
 public:
  static void encode(const Snapshot& snap, robust::CheckpointWriter& w) {
    w.u32(kSnapshotFormatVersion);
    w.i32(snap.archive_end_);

    const SnapshotConfig& config = snap.config_;
    w.i32(config.op_timeout_days);
    w.i32(config.admin.transfer_gap_tolerance);
    w.i64(config.squat.dormancy_days);
    encode_double(w, config.squat.max_relative_duration);

    w.varint(snap.rows_.size());
    for (const AsnRow& row : snap.rows_) {
      w.u32(row.asn.value);
      w.u32(row.admin_begin);
      w.u32(row.admin_count);
      w.u32(row.op_begin);
      w.u32(row.op_count);
      w.u16(row.flags);
    }

    w.varint(snap.admin_rows_.size());
    for (const AdminLifeRow& row : snap.admin_rows_) {
      encode_admin_life(w, row.life);
      w.u8(static_cast<std::uint8_t>(row.category));
    }

    w.varint(snap.op_rows_.size());
    for (const OpLifeRow& row : snap.op_rows_) {
      w.u32(row.life.asn.value);
      w.i32(row.life.days.first);
      w.i32(row.life.days.last);
      w.u8(static_cast<std::uint8_t>(row.category));
      w.i32(row.admin_index);
      w.boolean(row.dormant_squat);
      w.boolean(row.outside_activity);
    }

    w.boolean(snap.working_.has_value());
    if (!snap.working_.has_value()) return;
    const Snapshot::WorkingSet& working = *snap.working_;
    for (std::size_t r = 0; r < asn::kRirCount; ++r) {
      w.varint(working.spans[r].size());
      for (const auto& [asn_value, spans] : working.spans[r]) {
        w.u32(asn_value);
        w.varint(spans.size());
        for (const restore::StateSpan& span : spans) {
          w.i32(span.days.first);
          w.i32(span.days.last);
          encode_record_state(w, span.state);
        }
      }
      w.boolean(working.first_observed[r].has_value());
      if (working.first_observed[r].has_value())
        w.i32(*working.first_observed[r]);
    }
    w.varint(working.activity.entries().size());
    for (const auto& [asn_key, days] : working.activity.entries()) {
      w.u32(asn_key.value);
      w.varint(days.runs().size());
      for (const util::DayInterval& run : days.runs()) {
        w.i32(run.first);
        w.i32(run.last);
      }
    }
  }

  static pl::StatusOr<Snapshot> decode(robust::CheckpointReader& r) {
    const std::uint32_t version = r.u32();
    if (r.ok() && version != kSnapshotFormatVersion)
      return pl::data_loss_error("snapshot format version skew");

    Snapshot snap;
    snap.archive_end_ = r.i32();
    snap.config_.op_timeout_days = r.i32();
    snap.config_.admin.transfer_gap_tolerance = r.i32();
    snap.config_.squat.dormancy_days = r.i64();
    snap.config_.squat.max_relative_duration = decode_double(r);

    const std::uint64_t row_count = r.container_size(22);
    snap.rows_.reserve(row_count);
    for (std::uint64_t i = 0; r.ok() && i < row_count; ++i) {
      AsnRow row;
      row.asn = asn::Asn{r.u32()};
      row.admin_begin = r.u32();
      row.admin_count = r.u32();
      row.op_begin = r.u32();
      row.op_count = r.u32();
      row.flags = r.u16();
      snap.rows_.push_back(row);
    }

    const std::uint64_t admin_count = r.container_size(30);
    snap.admin_rows_.reserve(admin_count);
    for (std::uint64_t i = 0; r.ok() && i < admin_count; ++i) {
      AdminLifeRow row;
      auto life = decode_admin_life(r);
      if (!life.ok()) return life.status();
      row.life = *life;
      auto category = decode_category(r);
      if (!category.ok()) return category.status();
      row.category = *category;
      snap.admin_rows_.push_back(row);
    }

    const std::uint64_t op_count = r.container_size(19);
    snap.op_rows_.reserve(op_count);
    for (std::uint64_t i = 0; r.ok() && i < op_count; ++i) {
      OpLifeRow row;
      row.life.asn = asn::Asn{r.u32()};
      row.life.days.first = r.i32();
      row.life.days.last = r.i32();
      auto category = decode_category(r);
      if (!category.ok()) return category.status();
      row.category = *category;
      row.admin_index = r.i32();
      row.dormant_squat = r.boolean();
      row.outside_activity = r.boolean();
      snap.op_rows_.push_back(row);
    }

    if (r.boolean()) {
      Snapshot::WorkingSet working;
      for (std::size_t reg = 0; r.ok() && reg < asn::kRirCount; ++reg) {
        const std::uint64_t asns = r.container_size(6);
        for (std::uint64_t i = 0; r.ok() && i < asns; ++i) {
          const std::uint32_t asn_value = r.u32();
          const std::uint64_t span_count = r.container_size(11);
          std::vector<restore::StateSpan>& spans =
              working.spans[reg][asn_value];
          spans.reserve(span_count);
          for (std::uint64_t j = 0; r.ok() && j < span_count; ++j) {
            restore::StateSpan span;
            span.days.first = r.i32();
            span.days.last = r.i32();
            auto state = decode_record_state(r);
            if (!state.ok()) return state.status();
            span.state = *state;
            spans.push_back(std::move(span));
          }
        }
        if (r.boolean()) working.first_observed[reg] = r.i32();
      }
      const std::uint64_t activity_count = r.container_size(6);
      for (std::uint64_t i = 0; r.ok() && i < activity_count; ++i) {
        const asn::Asn asn_key{r.u32()};
        const std::uint64_t run_count = r.container_size(8);
        for (std::uint64_t j = 0; r.ok() && j < run_count; ++j) {
          util::DayInterval run;
          run.first = r.i32();
          run.last = r.i32();
          working.activity.mark_active(asn_key, run);
        }
      }
      snap.working_ = std::move(working);
    }

    if (!r.ok() || !r.at_end())
      return pl::data_loss_error("snapshot failed to decode: " +
                                 std::string(r.error()));

    // Structural validation: the row index must stay inside the life
    // arrays and be sorted — a blob that passes CRC can still be hostile.
    for (std::size_t i = 0; i < snap.rows_.size(); ++i) {
      const AsnRow& row = snap.rows_[i];
      const std::uint64_t admin_end =
          static_cast<std::uint64_t>(row.admin_begin) + row.admin_count;
      const std::uint64_t op_end =
          static_cast<std::uint64_t>(row.op_begin) + row.op_count;
      if (admin_end > snap.admin_rows_.size() ||
          op_end > snap.op_rows_.size())
        return pl::data_loss_error("snapshot row index out of bounds");
      if (i > 0 && !(snap.rows_[i - 1].asn < row.asn))
        return pl::data_loss_error("snapshot rows not sorted by ASN");
    }

    snap.rebuild_indexes();
    return snap;
  }
};

// -- snapshot persistence --------------------------------------------------

std::string encode_snapshot(const Snapshot& snapshot) {
  robust::CheckpointWriter writer;
  SnapshotCodec::encode(snapshot, writer);
  return std::move(writer).finish();
}

pl::StatusOr<Snapshot> decode_snapshot(std::string_view frame) {
  robust::CheckpointReader reader(frame);
  if (!reader.ok())
    return pl::data_loss_error("snapshot rejected: " +
                               std::string(reader.error()));
  return SnapshotCodec::decode(reader);
}

pl::Status save_snapshot(const Snapshot& snapshot, const std::string& path,
                         robust::CrashPoints* crash) {
  const std::string frame = encode_snapshot(snapshot);

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
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return pl::unavailable_error("rename failed: " + tmp + " -> " + path);
  if (crash != nullptr && crash->fire("durable.checkpoint.after_rename"))
    return crash_status("durable.checkpoint.after_rename");
  return {};
}

pl::StatusOr<Snapshot> open_snapshot(const std::string& path) {
  auto bytes = robust::read_file(path);
  if (!bytes.ok()) return bytes.status();
  return decode_snapshot(*bytes);
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
  auto bytes = robust::read_file(path);
  if (!bytes.ok()) return bytes.status();
  std::string_view wal = *bytes;

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
    const SnapshotLoader loader = config_.loader != nullptr
                                      ? config_.loader
                                      : [&spath] { return open_snapshot(spath); };
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
  pl::Status saved =
      save_snapshot(service_->snapshot(), snapshot_path(), config_.crash);
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
