#include "restore/pipeline.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "check/contracts.hpp"
#include "delegation/interchange.hpp"
#include "robust/checkpoint.hpp"

namespace pl::restore {

namespace {

using dele::ChannelDelta;
using dele::ChannelDeltaView;
using dele::DayObservation;
using dele::DayObservationView;
using dele::FileCondition;
using dele::RecordChange;
using dele::RecordState;
using robust::CheckpointReader;
using robust::CheckpointWriter;
using util::Day;
using util::DayInterval;

// ---- Checkpoint schema helpers (one function pair per streamed type).

std::uint16_t pack_country(const asn::CountryCode& country) {
  if (country.unknown()) return 0;
  const std::string text = country.to_string();
  return static_cast<std::uint16_t>(
      (static_cast<std::uint8_t>(text[0]) << 8) |
      static_cast<std::uint8_t>(text[1]));
}

asn::CountryCode unpack_country(std::uint16_t packed) {
  if (packed == 0) return {};
  return asn::CountryCode::literal(static_cast<char>(packed >> 8),
                                   static_cast<char>(packed & 0xFF));
}

void write_state(CheckpointWriter& writer, const RecordState& state) {
  writer.u8(static_cast<std::uint8_t>(state.status));
  writer.boolean(state.registration_date.has_value());
  writer.i32(state.registration_date.value_or(0));
  writer.u16(pack_country(state.country));
  writer.u64(state.opaque_id);
}

RecordState read_state(CheckpointReader& reader) {
  RecordState state;
  const std::uint8_t status = reader.u8();
  state.status = static_cast<dele::Status>(status & 0x03);
  const bool has_date = reader.boolean();
  const Day date = reader.i32();
  if (has_date) state.registration_date = date;
  state.country = unpack_country(reader.u16());
  state.opaque_id = reader.u64();
  return state;
}

void write_delta(CheckpointWriter& writer, const ChannelDelta& delta) {
  writer.u8(static_cast<std::uint8_t>(delta.condition));
  writer.i32(delta.publish_minute);
  writer.varint(delta.changes.size());
  for (const RecordChange& change : delta.changes) {
    writer.u32(change.asn.value);
    writer.boolean(change.state.has_value());
    if (change.state) write_state(writer, *change.state);
  }
  writer.varint(delta.duplicates.size());
  for (const auto& [asn, state] : delta.duplicates) {
    writer.u32(asn.value);
    write_state(writer, state);
  }
}

ChannelDelta read_delta(CheckpointReader& reader) {
  ChannelDelta delta;
  delta.condition = static_cast<FileCondition>(reader.u8() & 0x03);
  delta.publish_minute = reader.i32();
  const std::uint64_t changes = reader.container_size(5);
  delta.changes.reserve(reader.ok() ? changes : 0);
  for (std::uint64_t i = 0; reader.ok() && i < changes; ++i) {
    RecordChange change;
    change.asn = asn::Asn{reader.u32()};
    if (reader.boolean()) change.state = read_state(reader);
    delta.changes.push_back(std::move(change));
  }
  const std::uint64_t duplicates = reader.container_size(4);
  for (std::uint64_t i = 0; reader.ok() && i < duplicates; ++i) {
    const asn::Asn asn{reader.u32()};
    delta.duplicates.emplace_back(asn, read_state(reader));
  }
  return delta;
}

void write_observation(CheckpointWriter& writer,
                       const DayObservation& observation) {
  writer.i32(observation.day);
  write_delta(writer, observation.extended);
  write_delta(writer, observation.regular);
}

DayObservation read_observation(CheckpointReader& reader) {
  DayObservation observation;
  observation.day = reader.i32();
  observation.extended = read_delta(reader);
  observation.regular = read_delta(reader);
  return observation;
}

/// Builds per-ASN spans incrementally from effective-state transitions.
class SpanBuilder {
 public:
  void set(std::uint32_t asn, Day day, const RecordState& state) {
    // try_emplace builds the Open in place only on insertion, so the common
    // update/unchanged paths never copy a RecordState temporary.
    auto [it, inserted] = open_.try_emplace(asn, day, state);
    if (!inserted) {
      if (it->second.state == state) return;  // unchanged, span continues
      close_one(asn, it->second, day - 1);
      it->second.since = day;
      it->second.state = state;
    }
  }

  void clear(std::uint32_t asn, Day day) {
    const auto it = open_.find(asn);
    if (it == open_.end()) return;
    close_one(asn, it->second, day - 1);
    open_.erase(it);
  }

  bool is_open(std::uint32_t asn) const noexcept {
    return open_.contains(asn);
  }

  const RecordState* open_state(std::uint32_t asn) const noexcept {
    const auto it = open_.find(asn);
    return it == open_.end() ? nullptr : &it->second.state;
  }

  void save(CheckpointWriter& writer) const {
    // open_ is serialized sorted so checkpoints are byte-deterministic.
    writer.varint(open_.size());
    std::vector<std::uint32_t> keys;
    keys.reserve(open_.size());
    for (const auto& [asn, open] : open_) keys.push_back(asn);
    std::sort(keys.begin(), keys.end());
    for (const std::uint32_t asn : keys) {
      const Open& open = open_.at(asn);
      writer.u32(asn);
      writer.i32(open.since);
      write_state(writer, open.state);
    }
    // Closed spans are stored flat; group them by ASN (ascending, per-ASN
    // close order preserved) so the byte stream matches the historical
    // map<asn, list> serialization exactly.
    std::vector<std::pair<std::uint32_t, StateSpan>> grouped = closed_;
    std::stable_sort(grouped.begin(), grouped.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < grouped.size(); ++i)
      if (i == 0 || grouped[i].first != grouped[i - 1].first) ++distinct;
    writer.varint(distinct);
    for (std::size_t i = 0; i < grouped.size();) {
      const std::uint32_t asn = grouped[i].first;
      std::size_t end = i;
      while (end < grouped.size() && grouped[end].first == asn) ++end;
      writer.u32(asn);
      writer.varint(end - i);
      for (; i < end; ++i) {
        const StateSpan& span = grouped[i].second;
        writer.i32(span.days.first);
        writer.i32(span.days.last);
        write_state(writer, span.state);
      }
    }
  }

  void load(CheckpointReader& reader) {
    open_.clear();
    closed_.clear();
    const std::uint64_t open_count = reader.container_size(9);
    for (std::uint64_t i = 0; reader.ok() && i < open_count; ++i) {
      const std::uint32_t asn = reader.u32();
      const Day since = reader.i32();
      open_.try_emplace(asn, since, read_state(reader));
    }
    const std::uint64_t span_count = reader.container_size(5);
    for (std::uint64_t i = 0; reader.ok() && i < span_count; ++i) {
      const std::uint32_t asn = reader.u32();
      const std::uint64_t list_size = reader.container_size(8);
      for (std::uint64_t s = 0; reader.ok() && s < list_size; ++s) {
        StateSpan span;
        span.days.first = reader.i32();
        span.days.last = reader.i32();
        span.state = read_state(reader);
        closed_.emplace_back(asn, std::move(span));
      }
    }
  }

  // pl-lint: det-ok(stable sort re-canonicalises the drained spans below)
  std::map<std::uint32_t, std::vector<StateSpan>> finish(Day last_day) {
    // pl-lint: allow(unordered-drain) order-independent fold: each ASN
    // appears in open_ at most once, and grouping below is a stable sort by
    // ASN, so per-ASN span sequences don't depend on this drain order.
    for (auto& [asn, open] : open_)
      closed_.emplace_back(
          asn, StateSpan{DayInterval{open.since, last_day}, open.state});
    open_.clear();
    // Group the flat closed list by ASN. The stable sort keeps each ASN's
    // spans in close order, so the per-ASN day sort sees the same input
    // sequence (and produces the same output) as the old map-of-lists.
    std::stable_sort(closed_.begin(), closed_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::map<std::uint32_t, std::vector<StateSpan>> out;
    std::vector<StateSpan> list;
    for (std::size_t i = 0; i < closed_.size();) {
      const std::uint32_t asn = closed_[i].first;
      list.clear();
      for (; i < closed_.size() && closed_[i].first == asn; ++i)
        list.push_back(std::move(closed_[i].second));
      std::sort(list.begin(), list.end(),
                [](const StateSpan& a, const StateSpan& b) {
                  return a.days.first < b.days.first;
                });
      out.emplace_hint(out.end(), asn, list);
    }
    closed_.clear();
    return out;
  }

 private:
  struct Open {
    Open(Day s, const RecordState& st) : since(s), state(st) {}

    Day since;
    RecordState state;
  };

  void close_one(std::uint32_t asn, const Open& open, Day last) {
    if (last >= open.since)
      closed_.emplace_back(asn,
                           StateSpan{DayInterval{open.since, last}, open.state});
  }

  std::unordered_map<std::uint32_t, Open> open_;
  /// Flat (asn, span) pairs in close order — grouped on save()/finish().
  /// A map<asn, vector> here cost a tree lookup per closed span on the
  /// restore hot path.
  std::vector<std::pair<std::uint32_t, StateSpan>> closed_;
};

bool in_era(const ChannelDeltaView& delta) noexcept {
  return delta.condition != FileCondition::kNotPublished;
}

bool present(const ChannelDeltaView& delta) noexcept {
  return delta.condition == FileCondition::kPresent;
}

}  // namespace

struct StreamingRestorer::Impl {
  Impl(asn::Rir rir, const RestoreConfig& restore_config,
       const ErxDates* erx_dates, const bgp::ActivityTable* hint,
       robust::ErrorSink* error_sink)
      : config(restore_config), erx(erx_dates), bgp_hint(hint),
        sink(error_sink) {
    out.rir = rir;
  }

  RestoreConfig config;
  const ErxDates* erx;
  const bgp::ActivityTable* bgp_hint;
  robust::ErrorSink* sink;

  RestoredRegistry out;

  /// Per-ASN restoration state, merged into one table so the hot
  /// resolve/apply paths pay a single hash lookup instead of one per concern
  /// (extended state, regular state, vanish tracking, first-seen, duplicate
  /// accounting each used to live in their own map). Flags gate validity;
  /// a falsey flag is exactly the old "key absent" case.
  struct Rec {
    RecordState ext;          ///< valid iff ext_present
    RecordState reg;          ///< valid iff reg_present
    Day vanished_day = 0;     ///< valid iff vanished
    Day first_seen_day = 0;   ///< valid iff seen
    bool ext_present = false;
    bool reg_present = false;
    /// Recently vanished from the extended channel while the regular one
    /// still lists the ASN.
    bool vanished = false;
    bool seen = false;
    bool dup_counted = false;  ///< duplicate episode already counted
  };
  std::unordered_map<std::uint32_t, Rec> recs;
  // Expiry queue for the recovery grace period.
  std::map<Day, std::vector<std::uint32_t>> grace_expiry;

  SpanBuilder builder;
  bool extended_era_started = false;
  Day last_day = 0;
  bool any_applied = false;

  // Ingestion guard: observations held back by the reorder window (value:
  // the observation plus whether it arrived behind a newer day), and the
  // newest day number seen on the wire.
  std::map<Day, std::pair<DayObservation, bool>> pending;
  Day newest_seen = 0;
  bool any_seen = false;

  // apply_day scratch (capacity persists across days).
  std::vector<std::uint32_t> touched_scratch;

  // Recompute the effective record for one ASN and apply it to the builder.
  void resolve(std::uint32_t asn, Day day, bool ext_usable) {
    RestorationReport& report = out.report;
    const auto it = recs.find(asn);
    if (it == recs.end()) {
      builder.clear(asn, day);
      return;
    }
    Rec& rec = it->second;
    if (extended_era_started && rec.ext_present) {
      builder.set(asn, day, rec.ext);
      rec.vanished = false;
      return;
    }
    if (rec.reg_present) {
      if (!extended_era_started) {
        builder.set(asn, day, rec.reg);
        return;
      }
      if (!config.recover_from_regular) {
        builder.clear(asn, day);
        return;
      }
      // Extended era active but the record is only in the regular file:
      // trust it within the grace window (steps ii/iii).
      if (!ext_usable || !rec.vanished ||
          day - rec.vanished_day <= config.recovery_grace_days) {
        if (rec.vanished) ++report.recovered_from_regular;
        builder.set(asn, day, rec.reg);
        return;
      }
      // Grace expired: the disappearance is real despite the stale regular
      // record.
      ++report.grace_expired_drops;
      builder.clear(asn, day);
      return;
    }
    builder.clear(asn, day);
  }

  void diagnose_stream(std::string code, std::string message, Day day) {
    if (sink == nullptr) return;
    sink->report({robust::Stage::kStream, robust::Severity::kWarning,
                  std::move(code), std::move(message), day, std::nullopt});
  }

  /// Quarantine one observation that violated the day-order contract.
  void quarantine(Day day, bool duplicate) {
    if (duplicate) {
      ++out.report.days_quarantined_duplicate;
      if (sink != nullptr) ++sink->counters().days_quarantined_duplicate;
      diagnose_stream("stream-duplicate-day",
                      "day observed again; quarantined", day);
    } else {
      ++out.report.days_quarantined_late;
      if (sink != nullptr) ++sink->counters().days_quarantined_late;
      diagnose_stream("stream-late-day",
                      "day arrived beyond the reorder window; quarantined",
                      day);
    }
  }

  /// Entry point for one wire observation: enforce the strictly-increasing
  /// contract, re-sorting within the bounded reorder window and
  /// quarantining the rest, then apply in order.
  void ingest(const DayObservation& obs) {
    const int window = config.reorder_window_days;
    if (any_applied && obs.day <= last_day) {
      quarantine(obs.day, obs.day == last_day);
      return;
    }
    if (window <= 0) {
      apply_day(dele::view_of(obs), /*arrived_late=*/false);
      return;
    }
    buffer_pending(obs);
  }

  /// Zero-copy entry point: applies straight from reader-owned storage on
  /// the in-order fast path; only the (rare) reorder-window path has to
  /// materialize an owned copy.
  void ingest(const DayObservationView& view) {
    const int window = config.reorder_window_days;
    if (any_applied && view.day <= last_day) {
      quarantine(view.day, view.day == last_day);
      return;
    }
    if (window <= 0) {
      apply_day(view, /*arrived_late=*/false);
      return;
    }
    buffer_pending(dele::materialize(view));
  }

  void buffer_pending(DayObservation obs) {
    const bool arrived_late = any_seen && obs.day < newest_seen;
    const Day day = obs.day;
    const auto [it, inserted] =
        pending.try_emplace(day, std::move(obs), arrived_late);
    if (!inserted) {
      quarantine(day, /*duplicate=*/true);
      return;
    }
    if (!any_seen || day > newest_seen) {
      newest_seen = day;
      any_seen = true;
    }
    flush_ready();
  }

  /// Apply every pending day old enough that no in-window reordering can
  /// still precede it.
  void flush_ready() {
    while (!pending.empty() &&
           pending.begin()->first + config.reorder_window_days <
               newest_seen) {
      auto node = pending.extract(pending.begin());
      apply_day(dele::view_of(node.mapped().first), node.mapped().second);
    }
  }

  void apply_day(const DayObservationView& obs, bool arrived_late) {
    PL_EXPECT(!any_applied || obs.day > last_day,
              "observations must apply in strictly increasing day order "
              "(the reorder window re-sorts, the quarantine drops the rest)");
    RestorationReport& report = out.report;
    const Day day = obs.day;
    last_day = day;
    any_applied = true;
    ++report.days_processed;
    if (arrived_late) {
      ++report.days_reorder_recovered;
      if (sink != nullptr) ++sink->counters().days_reorder_recovered;
    }
    if (sink != nullptr) ++sink->counters().days_applied;

    const bool ext_in_era = in_era(obs.extended);
    const bool reg_in_era = in_era(obs.regular);
    if (!ext_in_era && !reg_in_era) return;
    if (ext_in_era && !extended_era_started) extended_era_started = true;

    const bool ext_present = present(obs.extended);
    const bool reg_present = present(obs.regular);

    if (ext_in_era && obs.extended.condition == FileCondition::kMissing)
      ++report.files_missing;
    if (reg_in_era && obs.regular.condition == FileCondition::kMissing)
      ++report.files_missing;
    if (obs.extended.condition == FileCondition::kCorrupt ||
        obs.regular.condition == FileCondition::kCorrupt)
      ++report.files_corrupt;
    if (!ext_present && !reg_present && (ext_in_era || reg_in_era)) {
      // Step i: nothing published today; every open record's state carries
      // over to bridge the gap.
      ++report.gap_filled_days;
      return;
    }

    // Reused scratch instead of a per-day std::set: collect with duplicates,
    // then sort + unique before the resolve loop. Ascending-unique iteration
    // matches the old set exactly, without the node churn.
    std::vector<std::uint32_t>& touched = touched_scratch;
    touched.clear();

    if (ext_present) {
      for (const RecordChange& change : obs.extended.changes) {
        const std::uint32_t asn = change.asn.value;
        touched.push_back(asn);
        Rec& rec = recs[asn];
        if (change.state) {
          rec.ext = *change.state;
          rec.ext_present = true;
          if (!rec.seen) {
            rec.seen = true;
            rec.first_seen_day = day;
          }
        } else {
          rec.ext_present = false;
          if (rec.reg_present) {
            rec.vanished = true;
            rec.vanished_day = day;
            grace_expiry[day + config.recovery_grace_days + 1].push_back(asn);
          }
        }
      }
      if (obs.extended.publish_minute > obs.regular.publish_minute &&
          reg_present && !obs.extended.changes.empty())
        ++report.newest_conflict_days;
    }

    if (reg_present) {
      for (const RecordChange& change : obs.regular.changes) {
        const std::uint32_t asn = change.asn.value;
        touched.push_back(asn);
        Rec& rec = recs[asn];
        if (change.state) {
          rec.reg = *change.state;
          rec.reg_present = true;
          if (!rec.seen) {
            rec.seen = true;
            rec.first_seen_day = day;
          }
        } else {
          rec.reg_present = false;
        }
      }
    }

    // Step iv: duplicate records. Keep the interpretation consistent with
    // history, consulting BGP activity when history is ambiguous.
    if (config.resolve_duplicates) {
      for (const auto& [dup_asn, dup_state] : obs.extended.duplicates) {
        const std::uint32_t asn = dup_asn.value;
        const RecordState* current = builder.open_state(asn);
        bool prefer_duplicate = false;
        if (current == nullptr) {
          prefer_duplicate = dele::is_delegated(dup_state.status);
        } else if (current->status != dup_state.status &&
                   bgp_hint != nullptr) {
          // History says `current`; if BGP contradicts it, flip.
          const util::IntervalSet* activity = bgp_hint->activity(dup_asn);
          const bool active = activity != nullptr && activity->contains(day);
          if (active && !dele::is_delegated(current->status) &&
              dele::is_delegated(dup_state.status))
            prefer_duplicate = true;
        }
        Rec& rec = recs[asn];
        if (prefer_duplicate) {
          rec.ext = dup_state;
          rec.ext_present = true;
          touched.push_back(asn);
        }
        if (!rec.dup_counted) {
          rec.dup_counted = true;
          ++report.duplicates_resolved;
        }
      }
    }

    // Grace expirations scheduled for today (and earlier days skipped while
    // files were missing).
    while (!grace_expiry.empty() && grace_expiry.begin()->first <= day) {
      for (const std::uint32_t asn : grace_expiry.begin()->second) {
        const auto it = recs.find(asn);
        if (it != recs.end() && it->second.vanished) touched.push_back(asn);
      }
      grace_expiry.erase(grace_expiry.begin());
    }

    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    const bool ext_usable = ext_present;
    for (const std::uint32_t asn : touched) resolve(asn, day, ext_usable);
  }

  RestoredRegistry finalize() {
    // Drain the reorder window: at end of stream nothing newer can arrive.
    while (!pending.empty()) {
      auto node = pending.extract(pending.begin());
      apply_day(dele::view_of(node.mapped().first), node.mapped().second);
    }
    RestorationReport& report = out.report;
    out.spans = builder.finish(last_day);
    PL_ENSURE(([&] {
                for (const auto& [asn, spans] : out.spans)
                  for (std::size_t s = 1; s < spans.size(); ++s)
                    if (spans[s].days.first <= spans[s - 1].days.first ||
                        spans[s].days.first <= spans[s - 1].days.last)
                      return false;
                return true;
              })(),
              "per-ASN state spans must leave finish() sorted by start day "
              "and non-overlapping");

    // ---- Step v: registration-date repair, span-list post-pass.
    if (config.repair_dates) {
      for (auto& [asn, spans] : out.spans) {
        // Future dates: clamp to the day the ASN first appeared in any file.
        for (StateSpan& span : spans) {
          if (!span.state.registration_date) continue;
          const auto seen = recs.find(asn);
          if (seen == recs.end() || !seen->second.seen) continue;
          if (*span.state.registration_date > span.days.first &&
              *span.state.registration_date > seen->second.first_seen_day) {
            span.state.registration_date = seen->second.first_seen_day;
            ++report.future_dates_fixed;
          }
        }
        // Placeholder dates: restore from the ERX reference; fall back to
        // the earliest non-placeholder date seen for the ASN.
        std::optional<Day> earliest_real;
        for (const StateSpan& span : spans)
          if (span.state.registration_date &&
              *span.state.registration_date != config.placeholder_date)
            earliest_real =
                earliest_real ? std::min(*earliest_real,
                                         *span.state.registration_date)
                              : *span.state.registration_date;
        for (StateSpan& span : spans) {
          if (span.state.registration_date != config.placeholder_date)
            continue;
          if (erx != nullptr) {
            const auto it = erx->find(asn);
            if (it != erx->end()) {
              span.state.registration_date = it->second;
              ++report.placeholder_dates_restored;
              continue;
            }
          }
          if (earliest_real) {
            span.state.registration_date = earliest_real;
            ++report.placeholder_dates_restored;
          }
        }
      }
    }
    return std::move(out);
  }

  // ---- Checkpoint/resume: the entire streaming state, so a crash at any
  // day boundary resumes bit-identically to an uninterrupted run.

  static void write_report(CheckpointWriter& writer,
                           const RestorationReport& report) {
    const std::int64_t fields[] = {
        report.days_processed, report.files_missing, report.files_corrupt,
        report.gap_filled_days, report.recovered_from_regular,
        report.newest_conflict_days, report.duplicates_resolved,
        report.future_dates_fixed, report.placeholder_dates_restored,
        report.grace_expired_drops, report.days_quarantined_duplicate,
        report.days_quarantined_late, report.days_reorder_recovered,
        report.misuse_calls};
    writer.varint(std::size(fields));
    for (const std::int64_t field : fields) writer.i64(field);
  }

  static bool read_report(CheckpointReader& reader,
                          RestorationReport& report) {
    std::int64_t* fields[] = {
        &report.days_processed, &report.files_missing, &report.files_corrupt,
        &report.gap_filled_days, &report.recovered_from_regular,
        &report.newest_conflict_days, &report.duplicates_resolved,
        &report.future_dates_fixed, &report.placeholder_dates_restored,
        &report.grace_expired_drops, &report.days_quarantined_duplicate,
        &report.days_quarantined_late, &report.days_reorder_recovered,
        &report.misuse_calls};
    if (reader.varint() != std::size(fields)) return false;
    for (std::int64_t* field : fields) *field = reader.i64();
    return reader.ok();
  }

  std::string serialize() const {
    CheckpointWriter writer;
    writer.u8(static_cast<std::uint8_t>(asn::index_of(out.rir)));
    // Config fingerprint — resuming under different restoration rules would
    // silently change semantics, so it is validated on load.
    writer.i32(config.recovery_grace_days);
    writer.i32(config.placeholder_date);
    writer.i32(config.grandfather_margin_days);
    writer.i32(config.reorder_window_days);
    writer.u8(static_cast<std::uint8_t>(
        (config.recover_from_regular ? 1 : 0) |
        (config.resolve_duplicates ? 2 : 0) | (config.repair_dates ? 4 : 0)));

    write_report(writer, out.report);

    // Each legacy per-concern map is re-derived from the merged table in
    // ascending-key order, reproducing the historical byte stream exactly.
    std::vector<std::uint32_t> rec_keys;
    rec_keys.reserve(recs.size());
    for (const auto& [asn, rec] : recs) rec_keys.push_back(asn);
    std::sort(rec_keys.begin(), rec_keys.end());

    const auto write_rec_section =
        [&](auto&& member_present, auto&& write_value) {
          std::size_t count = 0;
          for (const std::uint32_t asn : rec_keys)
            if (member_present(recs.at(asn))) ++count;
          writer.varint(count);
          for (const std::uint32_t asn : rec_keys) {
            const Rec& rec = recs.at(asn);
            if (!member_present(rec)) continue;
            writer.u32(asn);
            write_value(rec);
          }
        };
    write_rec_section([](const Rec& r) { return r.ext_present; },
                      [&](const Rec& r) { write_state(writer, r.ext); });
    write_rec_section([](const Rec& r) { return r.reg_present; },
                      [&](const Rec& r) { write_state(writer, r.reg); });
    write_rec_section([](const Rec& r) { return r.vanished; },
                      [&](const Rec& r) { writer.i32(r.vanished_day); });

    writer.varint(grace_expiry.size());
    for (const auto& [day, asns] : grace_expiry) {
      writer.i32(day);
      writer.varint(asns.size());
      for (const std::uint32_t asn : asns) writer.u32(asn);
    }

    write_rec_section([](const Rec& r) { return r.seen; },
                      [&](const Rec& r) { writer.i32(r.first_seen_day); });

    {
      std::size_t count = 0;
      for (const std::uint32_t asn : rec_keys)
        if (recs.at(asn).dup_counted) ++count;
      writer.varint(count);
      for (const std::uint32_t asn : rec_keys)
        if (recs.at(asn).dup_counted) writer.u32(asn);
    }

    builder.save(writer);

    writer.boolean(extended_era_started);
    writer.boolean(any_applied);
    writer.i32(last_day);

    writer.varint(pending.size());
    for (const auto& [day, entry] : pending) {
      writer.boolean(entry.second);
      write_observation(writer, entry.first);
    }
    writer.boolean(any_seen);
    writer.i32(newest_seen);

    return std::move(writer).finish();
  }

  /// Load everything after the config fingerprint (already validated by the
  /// caller). Returns false on a short or corrupt payload.
  bool deserialize(CheckpointReader& reader) {
    if (!read_report(reader, out.report)) return false;

    {
      const std::uint64_t count = reader.container_size(10);
      recs.reserve(count);
      for (std::uint64_t i = 0; reader.ok() && i < count; ++i) {
        const std::uint32_t asn = reader.u32();
        Rec& rec = recs[asn];
        rec.ext = read_state(reader);
        rec.ext_present = true;
      }
    }
    {
      const std::uint64_t count = reader.container_size(10);
      for (std::uint64_t i = 0; reader.ok() && i < count; ++i) {
        const std::uint32_t asn = reader.u32();
        Rec& rec = recs[asn];
        rec.reg = read_state(reader);
        rec.reg_present = true;
      }
    }

    const std::uint64_t vanished = reader.container_size(8);
    for (std::uint64_t i = 0; reader.ok() && i < vanished; ++i) {
      const std::uint32_t asn = reader.u32();
      Rec& rec = recs[asn];
      rec.vanished = true;
      rec.vanished_day = reader.i32();
    }

    const std::uint64_t expiries = reader.container_size(5);
    for (std::uint64_t i = 0; reader.ok() && i < expiries; ++i) {
      const Day day = reader.i32();
      const std::uint64_t count = reader.container_size(4);
      auto& asns = grace_expiry[day];
      for (std::uint64_t a = 0; reader.ok() && a < count; ++a)
        asns.push_back(reader.u32());
    }

    const std::uint64_t seen = reader.container_size(8);
    for (std::uint64_t i = 0; reader.ok() && i < seen; ++i) {
      const std::uint32_t asn = reader.u32();
      Rec& rec = recs[asn];
      rec.seen = true;
      rec.first_seen_day = reader.i32();
    }

    const std::uint64_t duplicates = reader.container_size(4);
    for (std::uint64_t i = 0; reader.ok() && i < duplicates; ++i)
      recs[reader.u32()].dup_counted = true;

    builder.load(reader);

    extended_era_started = reader.boolean();
    any_applied = reader.boolean();
    last_day = reader.i32();

    const std::uint64_t held = reader.container_size(13);
    for (std::uint64_t i = 0; reader.ok() && i < held; ++i) {
      const bool late = reader.boolean();
      DayObservation observation = read_observation(reader);
      pending.emplace(observation.day,
                      std::make_pair(std::move(observation), late));
    }
    any_seen = reader.boolean();
    newest_seen = reader.i32();

    return reader.ok() && reader.at_end();
  }
};

StreamingRestorer::StreamingRestorer(asn::Rir rir,
                                     const RestoreConfig& config,
                                     const ErxDates* erx,
                                     const bgp::ActivityTable* bgp_hint,
                                     robust::ErrorSink* sink)
    : impl_(std::make_unique<Impl>(rir, config, erx, bgp_hint, sink)),
      sink_(sink) {}

StreamingRestorer::~StreamingRestorer() = default;
StreamingRestorer::StreamingRestorer(StreamingRestorer&&) noexcept = default;
StreamingRestorer& StreamingRestorer::operator=(StreamingRestorer&&) noexcept
    = default;

namespace {

/// Count and report an API-contract violation on a spent restorer.
void flag_misuse(RestorationReport& report, robust::ErrorSink* sink,
                 std::string_view what) {
  ++report.misuse_calls;
  if (sink == nullptr) return;
  ++sink->counters().misuse_calls;
  sink->report({robust::Stage::kRestore, robust::Severity::kFatal,
                "restorer-misuse",
                std::string(what) + " on a finalized or moved-from restorer",
                std::nullopt, std::nullopt});
}

}  // namespace

void StreamingRestorer::consume(const dele::DayObservation& observation) {
  if (impl_ == nullptr) {
    flag_misuse(spent_report_, sink_, "consume()");
    return;
  }
  impl_->ingest(observation);
}

void StreamingRestorer::consume(const dele::DayObservationView& observation) {
  if (impl_ == nullptr) {
    flag_misuse(spent_report_, sink_, "consume()");
    return;
  }
  impl_->ingest(observation);
}

RestoredRegistry StreamingRestorer::finalize() && {
  if (impl_ == nullptr) {
    flag_misuse(spent_report_, sink_, "finalize()");
    RestoredRegistry empty;
    empty.report = spent_report_;
    return empty;
  }
  RestoredRegistry result = impl_->finalize();
  spent_report_ = result.report;
  impl_.reset();  // the restorer is spent; later calls are guarded no-ops
  return result;
}

const RestorationReport& StreamingRestorer::report() const noexcept {
  return impl_ != nullptr ? impl_->out.report : spent_report_;
}

std::string StreamingRestorer::checkpoint() const {
  if (impl_ == nullptr) {
    flag_misuse(spent_report_, sink_, "checkpoint()");
    return {};
  }
  return impl_->serialize();
}

std::optional<StreamingRestorer> StreamingRestorer::from_checkpoint(
    std::string_view blob, const RestoreConfig& config, const ErxDates* erx,
    const bgp::ActivityTable* bgp_hint, robust::ErrorSink* sink) {
  const auto fail = [sink](std::string message) -> std::optional<
                        StreamingRestorer> {
    if (sink != nullptr) {
      ++sink->counters().checkpoint_failures;
      sink->report({robust::Stage::kCheckpoint, robust::Severity::kFatal,
                    "checkpoint-unusable", std::move(message), std::nullopt,
                    std::nullopt});
    }
    return std::nullopt;
  };

  CheckpointReader reader(blob);
  if (!reader.ok()) return fail(std::string(reader.error()));

  const std::uint8_t rir_index = reader.u8();
  if (!reader.ok() || rir_index >= asn::kRirCount)
    return fail("bad registry index");

  const Day grace = reader.i32();
  const Day placeholder = reader.i32();
  const Day margin = reader.i32();
  const Day window = reader.i32();
  const std::uint8_t flags = reader.u8();
  if (!reader.ok()) return fail("truncated config fingerprint");
  if (grace != config.recovery_grace_days ||
      placeholder != config.placeholder_date ||
      margin != config.grandfather_margin_days ||
      window != config.reorder_window_days ||
      flags != static_cast<std::uint8_t>(
                   (config.recover_from_regular ? 1 : 0) |
                   (config.resolve_duplicates ? 2 : 0) |
                   (config.repair_dates ? 4 : 0)))
    return fail("checkpoint was taken under a different RestoreConfig");

  StreamingRestorer restorer(asn::kAllRirs[rir_index], config, erx, bgp_hint,
                             sink);
  if (!restorer.impl_->deserialize(reader))
    return fail(reader.ok() ? "trailing bytes after payload"
                            : std::string(reader.error()));
  return restorer;
}

RestoredRegistry restore_registry(dele::ArchiveStream& stream,
                                  const RestoreConfig& config,
                                  const ErxDates* erx,
                                  const bgp::ActivityTable* bgp_hint,
                                  robust::ErrorSink* sink) {
  StreamingRestorer restorer(stream.registry(), config, erx, bgp_hint, sink);
  std::optional<DayObservation> observation;
  while ((observation = stream.next())) restorer.consume(*observation);
  return std::move(restorer).finalize();
}

RestoredRegistry restore_registry(dele::DeltaArchiveReader& reader,
                                  const RestoreConfig& config,
                                  const ErxDates* erx,
                                  const bgp::ActivityTable* bgp_hint,
                                  robust::ErrorSink* sink) {
  StreamingRestorer restorer(reader.registry(), config, erx, bgp_hint, sink);
  while (const DayObservationView* view = reader.next_view())
    restorer.consume(*view);
  if (!reader.status().ok() && sink != nullptr)
    sink->report({robust::Stage::kStream, robust::Severity::kFatal,
                  "interchange-decode", reader.status().to_string(),
                  std::nullopt, std::nullopt});
  PL_EXPECT(reader.status().ok(),
            "in-process interchange archive failed to decode");
  return std::move(restorer).finalize();
}

void record_metrics(const RestorationReport& report, asn::Rir rir,
                    obs::Registry& metrics) {
  const std::string label =
      "{registry=\"" + std::string(asn::file_token(rir)) + "\"}";
  const auto add = [&](std::string_view base, std::int64_t value) {
    metrics.counter(std::string(base) + label).add(value);
  };
  add("pl_restore_days_processed", report.days_processed);
  add("pl_restore_files_missing", report.files_missing);
  add("pl_restore_files_corrupt", report.files_corrupt);
  add("pl_restore_gap_filled_days", report.gap_filled_days);
  add("pl_restore_recovered_from_regular", report.recovered_from_regular);
  add("pl_restore_newest_conflict_days", report.newest_conflict_days);
  add("pl_restore_duplicates_resolved", report.duplicates_resolved);
  add("pl_restore_future_dates_fixed", report.future_dates_fixed);
  add("pl_restore_placeholder_dates_restored",
      report.placeholder_dates_restored);
  add("pl_restore_grace_expired_drops", report.grace_expired_drops);
  add("pl_restore_days_quarantined_duplicate",
      report.days_quarantined_duplicate);
  add("pl_restore_days_quarantined_late", report.days_quarantined_late);
  add("pl_restore_days_reorder_recovered", report.days_reorder_recovered);
  add("pl_restore_misuse_calls", report.misuse_calls);
}

void record_metrics(const RestoredRegistry& registry,
                    obs::Registry& metrics) {
  record_metrics(registry.report, registry.rir, metrics);
  const std::string label =
      "{registry=\"" + std::string(asn::file_token(registry.rir)) + "\"}";
  std::int64_t spans = 0;
  for (const auto& [asn, list] : registry.spans)
    spans += static_cast<std::int64_t>(list.size());
  metrics.counter("pl_restore_asns" + label)
      .add(static_cast<std::int64_t>(registry.spans.size()));
  metrics.counter("pl_restore_spans" + label).add(spans);
}

void record_metrics(const CrossRirReport& report, obs::Registry& metrics) {
  metrics.counter("pl_restore_overlapping_asns").add(report.overlapping_asns);
  metrics.counter("pl_restore_stale_spans_trimmed")
      .add(report.stale_spans_trimmed);
  metrics.counter("pl_restore_mistaken_spans_removed")
      .add(report.mistaken_spans_removed);
}

CrossRirReport reconcile_registries(
    std::array<RestoredRegistry, asn::kRirCount>& registries,
    const BlockOwnerFn& owner, const RestoreConfig& config,
    util::Day archive_begin) {
  CrossRirReport report;
  PL_EXPECT(([&] {
              for (const RestoredRegistry& registry : registries)
                for (const auto& [asn, spans] : registry.spans)
                  for (std::size_t s = 1; s < spans.size(); ++s)
                    if (spans[s].days.first < spans[s - 1].days.first)
                      return false;
              return true;
            })(),
            "reconcile_registries requires per-ASN spans sorted by start "
            "day in every registry");

  // Collect, per ASN, the delegated spans of every registry, and each
  // registry's first observed day (its first published file).
  struct Ref {
    std::size_t registry;
    std::size_t span_index;
  };
  std::map<std::uint32_t, std::vector<Ref>> delegated;
  std::array<util::Day, asn::kRirCount> first_observed;
  first_observed.fill(archive_begin);
  for (std::size_t r = 0; r < registries.size(); ++r) {
    util::Day first = 0;
    bool any = false;
    for (const auto& [asn, spans] : registries[r].spans)
      for (std::size_t s = 0; s < spans.size(); ++s) {
        if (!any || spans[s].days.first < first) {
          first = spans[s].days.first;
          any = true;
        }
        if (dele::is_delegated(spans[s].state.status))
          delegated[asn].push_back(Ref{r, s});
      }
    if (any) first_observed[r] = first;
  }

  std::vector<std::pair<std::size_t, std::uint32_t>> removals;  // (reg, asn)
  std::map<std::pair<std::size_t, std::uint32_t>,
           std::vector<std::size_t>> spans_to_remove;

  for (auto& [asn, refs] : delegated) {
    bool multi_registry = false;
    for (const Ref& ref : refs)
      if (ref.registry != refs.front().registry) multi_registry = true;

    bool overlapped = false;
    if (multi_registry)
    for (std::size_t a = 0; a < refs.size(); ++a) {
      for (std::size_t b = a + 1; b < refs.size(); ++b) {
        if (refs[a].registry == refs[b].registry) continue;
        auto& span_a =
            registries[refs[a].registry].spans[asn][refs[a].span_index];
        auto& span_b =
            registries[refs[b].registry].spans[asn][refs[b].span_index];
        if (!span_a.days.overlaps(span_b.days)) continue;
        overlapped = true;
        // Stale rule: the span ending first inside the overlap is stale —
        // trim it back to just before the other began.
        StateSpan* stale = nullptr;
        StateSpan* live = nullptr;
        if (span_a.days.last < span_b.days.last) {
          stale = &span_a;
          live = &span_b;
        } else if (span_b.days.last < span_a.days.last) {
          stale = &span_b;
          live = &span_a;
        }
        if (stale != nullptr) {
          stale->days.last = live->days.first - 1;
          ++report.stale_spans_trimmed;
        }
      }
    }
    if (overlapped) ++report.overlapping_asns;

    // Foreign-block rule: a delegated span in a registry that does not hold
    // the IANA block, starting mid-archive with no adjacent predecessor in
    // any registry, is a mistaken allocation.
    if (owner) {
      const std::optional<asn::Rir> block_owner = owner(asn::Asn{asn});
      for (const Ref& ref : refs) {
        RestoredRegistry& registry = registries[ref.registry];
        if (block_owner && asn::index_of(*block_owner) == ref.registry)
          continue;
        StateSpan& span = registry.spans[asn][ref.span_index];
        if (span.days.empty()) continue;
        if (span.days.first <= first_observed[ref.registry] +
                                   config.grandfather_margin_days)
          continue;  // inherited pre-archive state
        bool has_predecessor = false;
        for (const Ref& other : refs) {
          if (&other == &ref) continue;
          const StateSpan& other_span =
              registries[other.registry].spans[asn][other.span_index];
          if (other_span.days.last + 1 + config.recovery_grace_days >=
                  span.days.first &&
              other_span.days.first < span.days.first)
            has_predecessor = true;
        }
        if (!has_predecessor) {
          spans_to_remove[{ref.registry, asn}].push_back(ref.span_index);
          ++report.mistaken_spans_removed;
        }
      }
    }
  }

  // Apply removals (descending index so indices stay valid).
  for (auto& [key, indices] : spans_to_remove) {
    auto& spans = registries[key.first].spans[key.second];
    std::sort(indices.begin(), indices.end(), std::greater<>());
    for (const std::size_t index : indices)
      spans.erase(spans.begin() + static_cast<std::ptrdiff_t>(index));
    if (spans.empty()) registries[key.first].spans.erase(key.second);
  }
  // Drop spans emptied by stale trimming.
  for (auto& registry : registries) {
    for (auto it = registry.spans.begin(); it != registry.spans.end();) {
      auto& spans = it->second;
      std::erase_if(spans,
                    [](const StateSpan& s) { return s.days.empty(); });
      it = spans.empty() ? registry.spans.erase(it) : std::next(it);
    }
  }
  PL_ENSURE(([&] {
              for (const RestoredRegistry& registry : registries)
                for (const auto& [asn, spans] : registry.spans) {
                  if (spans.empty()) return false;
                  for (const StateSpan& span : spans)
                    if (span.days.empty()) return false;
                }
              return true;
            })(),
            "reconcile_registries must not leave empty spans or span-less "
            "ASN entries behind");
  return report;
}

RestoredArchive restore_archive(
    std::array<std::unique_ptr<dele::ArchiveStream>, asn::kRirCount> streams,
    const RestoreConfig& config, const ErxDates* erx,
    const BlockOwnerFn& owner, util::Day archive_begin,
    const bgp::ActivityTable* bgp_hint) {
  RestoredArchive archive;
  // The five registry streams are independent until step vi's merge.
  for (std::size_t i = 0; i < streams.size(); ++i)
    archive.registries[i] =
        restore_registry(*streams[i], config, erx, bgp_hint);
  archive.cross =
      reconcile_registries(archive.registries, owner, config, archive_begin);
  return archive;
}

}  // namespace pl::restore
