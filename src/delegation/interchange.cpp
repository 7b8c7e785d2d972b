#include "delegation/interchange.hpp"

#include <array>
#include <map>
#include <utility>

#include "util/crc32.hpp"

namespace pl::dele {

namespace {

constexpr std::string_view kBinaryMagic = "PLDB";

// ---------------------------------------------------------------------------
// Little-endian / varint primitives (writer side).

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
}

void put_varint(std::string& out, std::uint64_t value) {
  // Stage into a local buffer and append once: one size/capacity check per
  // varint instead of one per byte on the hot encode path.
  char buffer[10];
  std::size_t n = 0;
  while (value >= 0x80) {
    buffer[n++] = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  buffer[n++] = static_cast<char>(value);
  out.append(buffer, n);
}

constexpr std::uint32_t zigzag32(std::int32_t value) noexcept {
  return (static_cast<std::uint32_t>(value) << 1) ^
         static_cast<std::uint32_t>(value >> 31);
}

constexpr std::int32_t unzigzag32(std::uint32_t value) noexcept {
  return static_cast<std::int32_t>((value >> 1) ^ (~(value & 1) + 1));
}

// ---------------------------------------------------------------------------
// Token helpers.

/// Interchange files are machine-written with exact lowercase status tokens,
/// so an exact comparison suffices (parse_status lower-cases a copy, which
/// is too expensive for the decode path — and pl-lint's hot-path-alloc rule
/// would rightly object).
std::optional<Status> parse_status_exact(std::string_view token) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    const auto status = static_cast<Status>(i);
    if (token == status_token(status)) return status;
  }
  return std::nullopt;
}

/// Empty token = unknown country (CountryCode::to_string would render the
/// unknown value as "ZZ", which is a *real* code in delegation files; the
/// empty token keeps the round trip exact).
std::optional<asn::CountryCode> parse_country_token(
    std::string_view token) noexcept {
  if (token.empty()) return asn::CountryCode();
  return asn::CountryCode::parse(token);
}

// ===========================================================================
// Binary writer (pl-dlg-bin/1).
//
// Layout, all integers little-endian:
//   "PLDB" | version:u32 | day_count:u32
//   | table_count:u32 | table_count x (len:varint | bytes)
//   | rir_id:varint
//   | day_count x frame
// frame:
//   payload_len:u32 | payload | crc32(payload):u32
// payload:
//   day:zigzag-varint | channel(extended) | channel(regular)
// channel:
//   condition:u8 | publish_minute:zigzag-varint
//   | n_changes:varint | n_changes x change
//   | n_duplicates:varint | n_duplicates x duplicate
// change:
//   asn:varint | flags:u8 (bit0 = has_state, bit1 = has_date)
//   [ status_id:varint | country_id:varint | [date:zigzag-varint]
//     | opaque:varint ]                                   (if has_state)
// duplicate:
//   asn:varint | flags:u8 (bit1 = has_date)
//   | status_id:varint | country_id:varint | [date:zigzag-varint]
//   | opaque:varint

class BinaryEncoder {
 public:
  explicit BinaryEncoder(asn::Rir rir) {
    rir_id_ = pool_.intern(asn::file_token(rir));
    for (std::size_t i = 0; i < 4; ++i)
      status_ids_[i] = pool_.intern(status_token(static_cast<Status>(i)));
  }

  void add_day(const DayObservation& obs) {
    payload_.clear();
    put_varint(payload_, zigzag32(obs.day));
    put_channel(obs.extended);
    put_channel(obs.regular);
    put_u32(frames_, static_cast<std::uint32_t>(payload_.size()));
    frames_.append(payload_);
    put_u32(frames_, util::crc32(payload_));
    ++day_count_;
  }

  std::string finish() && {
    std::string out;
    out.reserve(64 + 8 * pool_.size() + frames_.size());
    out.append(kBinaryMagic);
    put_u32(out, kBinaryInterchangeVersion);
    put_u32(out, day_count_);
    put_u32(out, static_cast<std::uint32_t>(pool_.size()));
    for (std::uint32_t id = 0; id < pool_.size(); ++id) {
      const std::string_view token = pool_.at(id);
      put_varint(out, token.size());
      out.append(token);
    }
    put_varint(out, rir_id_);
    out.append(frames_);
    return out;
  }

 private:
  std::uint32_t country_id(asn::CountryCode country) {
    const auto [it, fresh] = country_ids_.try_emplace(country, 0);
    if (fresh)
      it->second = country.unknown() ? pool_.intern(std::string_view())
                                     : pool_.intern(country.to_string());
    return it->second;
  }

  void put_state(const RecordState& state, std::uint8_t flags_base) {
    std::uint8_t flags = flags_base;
    if (state.registration_date.has_value()) flags |= 0x02;
    payload_.push_back(static_cast<char>(flags));
    put_varint(payload_, status_ids_[static_cast<std::size_t>(state.status)]);
    put_varint(payload_, country_id(state.country));
    if (state.registration_date.has_value())
      put_varint(payload_, zigzag32(*state.registration_date));
    put_varint(payload_, state.opaque_id);
  }

  void put_channel(const ChannelDelta& channel) {
    payload_.push_back(static_cast<char>(channel.condition));
    put_varint(payload_, zigzag32(channel.publish_minute));
    put_varint(payload_, channel.changes.size());
    for (const RecordChange& change : channel.changes) {
      put_varint(payload_, change.asn.value);
      if (change.state.has_value()) {
        put_state(*change.state, 0x01);
      } else {
        payload_.push_back(0);  // flags: no state (record vanished)
      }
    }
    put_varint(payload_, channel.duplicates.size());
    for (const auto& [asn, state] : channel.duplicates) {
      put_varint(payload_, asn.value);
      put_state(state, 0x00);
    }
  }

  util::StringPool pool_;
  std::uint32_t rir_id_ = 0;
  std::array<std::uint32_t, 4> status_ids_{};
  std::map<asn::CountryCode, std::uint32_t> country_ids_;
  std::string payload_;
  std::string frames_;
  std::uint32_t day_count_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Bounds-checked byte reader (decoder side). Every accessor reports failure
// through its return value; decode loops bail out on the first false, so a
// truncated or bit-flipped archive can never run the cursor past `end_`.

class DeltaArchiveReader::ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) noexcept
      : cursor_(data), end_(data + size) {}

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cursor_);
  }

  bool u8(std::uint8_t& out) noexcept {
    if (cursor_ == end_) return false;
    out = static_cast<std::uint8_t>(*cursor_++);
    return true;
  }

  bool u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
      value = (value << 8) | static_cast<std::uint8_t>(cursor_[i]);
    cursor_ += 4;
    out = value;
    return true;
  }

  bool varint(std::uint64_t& out) noexcept {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (cursor_ == end_) return false;
      const auto byte = static_cast<std::uint8_t>(*cursor_++);
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        out = value;
        return true;
      }
    }
    return false;  // > 10 bytes: not a valid varint
  }

  bool varint32(std::uint32_t& out) noexcept {
    std::uint64_t wide = 0;
    if (!varint(wide) || wide > 0xFFFFFFFFu) return false;
    out = static_cast<std::uint32_t>(wide);
    return true;
  }

  bool zigzag(std::int32_t& out) noexcept {
    std::uint32_t raw = 0;
    if (!varint32(raw)) return false;
    out = unzigzag32(raw);
    return true;
  }

  bool view(std::size_t size, std::string_view& out) noexcept {
    if (remaining() < size) return false;
    out = std::string_view(cursor_, size);
    cursor_ += size;
    return true;
  }

 private:
  const char* cursor_;
  const char* end_;
};

// ===========================================================================
// Reader.

DeltaArchiveReader::DeltaArchiveReader(const EncodedArchive& archive)
    : archive_(&archive) {
  status_ = init();
}

const DayObservationView* DeltaArchiveReader::next_view() {
  if (!status_.ok() || done_) return nullptr;
  const std::string& bytes = archive_->bytes;
  if (days_read_ == day_count_) {
    if (offset_ != bytes.size()) {
      fail("trailing bytes after final frame");
      return nullptr;
    }
    done_ = true;
    return nullptr;
  }
  ByteReader frame(bytes.data() + offset_, bytes.size() - offset_);
  std::uint32_t payload_len = 0;
  if (!frame.u32(payload_len) ||
      frame.remaining() < static_cast<std::size_t>(payload_len) + 4u) {
    fail("truncated frame");
    return nullptr;
  }
  std::string_view payload;
  std::uint32_t stored_crc = 0;
  frame.view(payload_len, payload);
  frame.u32(stored_crc);
  if (stored_crc != util::crc32(payload)) {
    fail("frame CRC mismatch");
    return nullptr;
  }
  offset_ += 4u + payload_len + 4u;

  arena_.reset();
  ByteReader body(payload.data(), payload.size());
  if (!body.zigzag(view_.day) ||
      !decode_channel(body, view_.extended) ||
      !decode_channel(body, view_.regular) ||
      body.remaining() != 0) {
    if (status_.ok()) fail("malformed day payload");
    return nullptr;
  }
  ++days_read_;
  return &view_;
}

pl::Status DeltaArchiveReader::init() {
  const std::string& bytes = archive_->bytes;
  ByteReader header(bytes.data(), bytes.size());
  std::string_view magic;
  if (!header.view(kBinaryMagic.size(), magic) || magic != kBinaryMagic)
    return pl::data_loss_error("pl-dlg-bin: bad magic");
  std::uint32_t version = 0;
  if (!header.u32(version))
    return pl::data_loss_error("pl-dlg-bin: truncated header");
  if (version != kBinaryInterchangeVersion)
    return pl::invalid_argument_error(
        "pl-dlg-bin: unsupported version " + std::to_string(version));
  std::uint32_t table_count = 0;
  if (!header.u32(day_count_) || !header.u32(table_count))
    return pl::data_loss_error("pl-dlg-bin: truncated header");
  if (table_count > header.remaining())
    return pl::data_loss_error("pl-dlg-bin: implausible string-table size");

  std::vector<std::string> tokens;
  tokens.reserve(table_count);
  for (std::uint32_t i = 0; i < table_count; ++i) {
    std::uint64_t length = 0;
    std::string_view token;
    if (!header.varint(length) || !header.view(length, token))
      return pl::data_loss_error("pl-dlg-bin: truncated string table");
    tokens.emplace_back(token);
  }
  std::optional<util::StringPool> pool =
      util::StringPool::from_tokens(tokens);
  if (!pool.has_value())
    return pl::data_loss_error("pl-dlg-bin: duplicate string-table token");
  pool_ = std::make_shared<util::StringPool>(std::move(*pool));

  std::uint32_t rir_id = 0;
  if (!header.varint32(rir_id) || rir_id >= pool_->size())
    return pl::data_loss_error("pl-dlg-bin: bad registry id");
  const std::optional<asn::Rir> rir = asn::parse_rir(pool_->at(rir_id));
  if (!rir.has_value())
    return pl::data_loss_error("pl-dlg-bin: unknown registry token");
  if (*rir != archive_->rir)
    return pl::data_loss_error("pl-dlg-bin: registry mismatch");
  rir_ = *rir;

  // Resolve every table entry's meaning once; decode loops index vectors.
  status_by_id_.assign(pool_->size(), 0xFF);
  country_by_id_.assign(pool_->size(), asn::CountryCode());
  country_ok_.assign(pool_->size(), false);
  for (std::uint32_t id = 0; id < pool_->size(); ++id) {
    const std::string_view token = pool_->at(id);
    if (const auto status = parse_status_exact(token); status.has_value())
      status_by_id_[id] = static_cast<std::uint8_t>(*status);
    if (const auto country = parse_country_token(token);
        country.has_value()) {
      country_by_id_[id] = *country;
      country_ok_[id] = true;
    }
  }

  // Frames are at least 9 payload bytes plus 8 bytes of framing, so a
  // day count larger than remaining/17 cannot be honest — reject before
  // any decode loop trusts it.
  if (day_count_ > header.remaining() / 17 + 1)
    return pl::data_loss_error("pl-dlg-bin: implausible day count");
  offset_ = bytes.size() - header.remaining();
  return {};
}

void DeltaArchiveReader::fail(std::string_view what) {
  status_ = pl::data_loss_error(
      "pl-dlg-bin[" + std::string(asn::file_token(rir_)) + " day index " +
      std::to_string(days_read_) + "]: " + std::string(what));
}

bool DeltaArchiveReader::decode_state(ByteReader& body, std::uint8_t flags,
                                      RecordState& out) {
  std::uint32_t status_id = 0;
  std::uint32_t country_id = 0;
  if (!body.varint32(status_id) || !body.varint32(country_id)) return false;
  if (status_id >= status_by_id_.size() || status_by_id_[status_id] == 0xFF)
    return fail_decode("record references non-status table entry");
  if (country_id >= country_ok_.size() || !country_ok_[country_id])
    return fail_decode("record references non-country table entry");
  out.status = static_cast<Status>(status_by_id_[status_id]);
  out.country = country_by_id_[country_id];
  if ((flags & 0x02) != 0) {
    std::int32_t date = 0;
    if (!body.zigzag(date)) return false;
    out.registration_date = date;
  } else {
    out.registration_date = std::nullopt;
  }
  return body.varint(out.opaque_id);
}

bool DeltaArchiveReader::fail_decode(std::string_view what) {
  fail(what);
  return false;
}

bool DeltaArchiveReader::decode_channel(ByteReader& body,
                                        ChannelDeltaView& out) {
  std::uint8_t condition = 0;
  if (!body.u8(condition) || condition > 3)
    return fail_decode("bad file condition");
  out.condition = static_cast<FileCondition>(condition);
  if (!body.zigzag(out.publish_minute)) return false;

  std::uint64_t n_changes = 0;
  if (!body.varint(n_changes) || n_changes > body.remaining() / 2)
    return fail_decode("implausible change count");
  const std::span<RecordChange> changes =
      arena_.alloc_array<RecordChange>(n_changes);
  for (RecordChange& slot : changes) {
    // pl-lint: allow(naked-new) placement-new into arena storage; freed
    // wholesale by arena_.reset(), and RecordChange is trivially
    // destructible.
    auto* change = ::new (&slot) RecordChange();
    std::uint32_t asn = 0;
    std::uint8_t flags = 0;
    if (!body.varint32(asn) || !body.u8(flags)) return false;
    change->asn = asn::Asn{asn};
    if ((flags & 0x01) != 0) {
      change->state.emplace();
      if (!decode_state(body, flags, *change->state)) return false;
    }
  }
  out.changes = changes;

  std::uint64_t n_duplicates = 0;
  if (!body.varint(n_duplicates) || n_duplicates > body.remaining() / 5)
    return fail_decode("implausible duplicate count");
  const std::span<std::pair<asn::Asn, RecordState>> duplicates =
      arena_.alloc_array<std::pair<asn::Asn, RecordState>>(n_duplicates);
  for (auto& slot : duplicates) {
    // pl-lint: allow(naked-new) placement-new into arena storage, as above.
    auto* duplicate = ::new (&slot) std::pair<asn::Asn, RecordState>();
    std::uint32_t asn = 0;
    std::uint8_t flags = 0;
    if (!body.varint32(asn) || !body.u8(flags)) return false;
    duplicate->first = asn::Asn{asn};
    if (!decode_state(body, flags, duplicate->second)) return false;
  }
  out.duplicates = duplicates;
  return true;
}

std::optional<DayObservation> DeltaArchiveReader::next() {
  const DayObservationView* view = next_view();
  if (view == nullptr) return std::nullopt;
  return materialize(*view);
}

// ===========================================================================
// Public surface.

EncodedArchive encode_archive(ArchiveStream& stream, Interchange /*format*/) {
  EncodedArchive out;
  out.rir = stream.registry();
  BinaryEncoder encoder(out.rir);
  while (const std::optional<DayObservation> obs = stream.next())
    encoder.add_day(*obs);
  out.bytes = std::move(encoder).finish();
  return out;
}

DayObservation materialize(const DayObservationView& view) {
  DayObservation obs;
  obs.day = view.day;
  const auto copy_channel = [](const ChannelDeltaView& in,
                               ChannelDelta& out) {
    out.condition = in.condition;
    out.publish_minute = in.publish_minute;
    out.changes.assign(in.changes.begin(), in.changes.end());
    out.duplicates.assign(in.duplicates.begin(), in.duplicates.end());
  };
  copy_channel(view.extended, obs.extended);
  copy_channel(view.regular, obs.regular);
  return obs;
}

DayObservationView view_of(const DayObservation& obs) noexcept {
  DayObservationView view;
  view.day = obs.day;
  view.extended = {obs.extended.condition, obs.extended.publish_minute,
                   obs.extended.changes, obs.extended.duplicates};
  view.regular = {obs.regular.condition, obs.regular.publish_minute,
                  obs.regular.changes, obs.regular.duplicates};
  return view;
}

pl::StatusOr<std::unique_ptr<DeltaArchiveReader>> open_archive(
    const EncodedArchive& archive) {
  auto reader = std::make_unique<DeltaArchiveReader>(archive);
  if (!reader->status().ok()) return reader->status();
  return reader;
}

pl::StatusOr<std::vector<DayObservation>> decode_archive(
    const EncodedArchive& archive) {
  pl::StatusOr<std::unique_ptr<DeltaArchiveReader>> reader =
      open_archive(archive);
  if (!reader.ok()) return reader.status();
  std::vector<DayObservation> days;
  while (const DayObservationView* view = (*reader)->next_view())
    days.push_back(materialize(*view));
  if (!(*reader)->status().ok()) return (*reader)->status();
  return days;
}

}  // namespace pl::dele
