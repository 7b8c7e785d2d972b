// Delegation-archive interchange: the serialized boundary between the render
// stage (which produces per-registry archives) and the restore stage (which
// consumes them as day-delta streams).
//
// One wire format carries the day-observation model, `pl-dlg-bin/1`: a
// versioned, CRC-framed binary form. A string table at the head of the
// archive interns every registry / status / country token once; each day is
// one length-prefixed, CRC-checked frame of varint records that the reader
// decodes record-at-a-time into a per-day arena. The conformance reference
// is the in-memory generator stream the archive was encoded from
// (tests/interchange_conformance_test.cpp).
//
// The reader exposes a zero-copy view API (`next_view`): the returned
// records live in reader-owned storage that is valid until the next call,
// so the restore fast path never materializes `DayObservation` vectors. The
// materializing `ArchiveStream::next()` remains available for consumers that
// need owned observations (fault injection, reorder buffering).
//
// Frame layout, arena lifetime rules and intern-pool invariants are
// documented in DESIGN.md §13.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "delegation/archive.hpp"
#include "delegation/record.hpp"
#include "util/arena.hpp"
#include "util/intern.hpp"
#include "util/status.hpp"

namespace pl::dele {

/// Wire format selector. pl-dlg-bin/1 is the only format; the enum, the
/// `pipeline::Config::interchange` field and encode_archive()'s second
/// parameter remain only because the frozen perfbench study code passes
/// `config.interchange` through. The next change to perfbench removes all
/// three.
enum class Interchange : std::uint8_t {
  kBinary,  ///< pl-dlg-bin/1 (CRC-framed, string-interned)
};

inline constexpr std::uint32_t kBinaryInterchangeVersion = 1;  // pl-dlg-bin/1

/// One registry's archive, serialized. `bytes` owns the encoded form; readers
/// returned by open_archive() borrow it, so the EncodedArchive must outlive
/// them.
struct EncodedArchive {
  asn::Rir rir = asn::Rir::kArin;
  std::string bytes;
};

/// Drain `stream` to completion and encode every observation. The encoder is
/// the only component that walks the generator, so its cost lands in the
/// stage that owns the stream (render), not in restore.
EncodedArchive encode_archive(ArchiveStream& stream,
                              Interchange format = Interchange::kBinary);

/// Non-owning view of one channel's day delta. Spans point into reader-owned
/// storage (the per-day arena) valid until the next read call.
struct ChannelDeltaView {
  FileCondition condition = FileCondition::kNotPublished;
  std::int32_t publish_minute = 0;
  std::span<const RecordChange> changes;
  std::span<const std::pair<asn::Asn, RecordState>> duplicates;
};

/// Non-owning view of one day, both channels.
struct DayObservationView {
  util::Day day = 0;
  ChannelDeltaView extended;
  ChannelDeltaView regular;
};

/// Copy a view into an owned observation (reorder buffer, fault injection).
DayObservation materialize(const DayObservationView& view);

/// View over an owned observation (valid while `obs` is alive and unchanged).
DayObservationView view_of(const DayObservation& obs) noexcept;

/// Decoder for one pl-dlg-bin/1 archive. Also an ArchiveStream: `next()`
/// materializes the current view, which is what the chaos/fault path
/// consumes. Obtain one through open_archive().
class DeltaArchiveReader final : public ArchiveStream {
 public:
  /// Validates the header eagerly; a bad header latches status() and the
  /// reader yields no days. open_archive() turns that into an error return.
  explicit DeltaArchiveReader(const EncodedArchive& archive);

  asn::Rir registry() const noexcept override { return rir_; }

  /// Decode the next day without materializing: the returned view (and all
  /// spans inside it) is valid until the next next_view()/next() call.
  /// Returns nullptr at end of archive or on decode error — check status().
  const DayObservationView* next_view();

  /// OK while the stream is healthy; latches the first decode error. End of
  /// archive with an OK status is a clean EOF.
  const pl::Status& status() const noexcept { return status_; }

  /// The archive's interned token vocabulary (registry, statuses,
  /// countries), complete at open: the string table is decoded eagerly.
  std::shared_ptr<const util::StringPool> names() const noexcept {
    return pool_;
  }

  /// Materializing read, implemented on top of next_view(). Returns nullopt
  /// at end of archive *or* on decode error; callers that need to tell the
  /// difference check status().
  std::optional<DayObservation> next() override;

 private:
  class ByteReader;  // bounds-checked cursor, defined in interchange.cpp

  pl::Status init();
  void fail(std::string_view what);
  bool fail_decode(std::string_view what);
  bool decode_state(ByteReader& body, std::uint8_t flags, RecordState& out);
  bool decode_channel(ByteReader& body, ChannelDeltaView& out);

  const EncodedArchive* archive_;  // borrowed; caller keeps alive
  asn::Rir rir_ = asn::Rir::kArin;
  std::shared_ptr<util::StringPool> pool_;
  // Every string-table entry's meaning, resolved once at open so the decode
  // loops index vectors instead of parsing tokens.
  std::vector<std::uint8_t> status_by_id_;  // 0xFF = not a status token
  std::vector<asn::CountryCode> country_by_id_;
  std::vector<bool> country_ok_;
  std::size_t offset_ = 0;
  std::uint32_t day_count_ = 0;
  std::uint32_t days_read_ = 0;
  bool done_ = false;
  util::Arena arena_;
  DayObservationView view_;
  pl::Status status_;
};

/// Open an encoded archive for reading. Validates the header eagerly (magic,
/// version, string table, registry, day count) and fails with a precise
/// status: kDataLoss for corrupt or truncated input, kInvalidArgument for
/// version skew. The reader borrows `archive.bytes` — keep the
/// EncodedArchive alive.
pl::StatusOr<std::unique_ptr<DeltaArchiveReader>> open_archive(
    const EncodedArchive& archive);

/// Convenience for tests and tools: decode the whole archive into owned
/// observations, or the first error encountered.
pl::StatusOr<std::vector<DayObservation>> decode_archive(
    const EncodedArchive& archive);

}  // namespace pl::dele
