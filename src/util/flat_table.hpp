// Flat per-key tables: sorted uint32 keys, each owning one contiguous slice
// of a single value array (a compressed sparse row layout).
//
// The serving working set keeps every registry's restored spans and the BGP
// activity runs in this form, so a copy is three vector copies, a snapshot
// payload is the arrays written out as columns, and a decode is validate
// plus copy (DESIGN.md §11, §12).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/date.hpp"
#include "util/interval.hpp"

namespace pl::util {

/// Append the "as of day D" cut of one ordered run list to `out`: values
/// starting after `last_day` are dropped and the one straddling it ends
/// there. `days` maps a value to its `DayInterval`. The one clip rule for
/// every cut of the world at a day (restore::clip_spans,
/// IntervalSet::clipped, FlatTable::clipped).
template <typename T, typename Days>
void append_clipped(std::span<const T> run, Day last_day, Days days,
                    std::vector<T>& out) {
  for (const T& value : run) {
    if (days(value).first > last_day) break;
    out.push_back(value);
    DayInterval& kept = days(out.back());
    kept.last = std::min(kept.last, last_day);
  }
}

/// One key's new value list for `FlatTable::replace`.
template <typename T>
struct FlatEdit {
  std::uint32_t key = 0;
  std::vector<T> values;  ///< non-empty
};

/// Values grouped under strictly ascending keys: key i owns the values from
/// offsets[i] up to offsets[i + 1] (the last key: to the end). Every key
/// owns at least one value, and an empty table has all three arrays empty,
/// so two tables holding the same lists compare equal.
template <typename T>
struct FlatTable {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> offsets;
  std::vector<T> values;

  std::size_t size() const noexcept { return keys.size(); }

  /// One past the last value of key i.
  std::size_t end_of(std::size_t i) const noexcept {
    return i + 1 < offsets.size() ? offsets[i + 1] : values.size();
  }

  /// The values of key i.
  std::span<const T> row(std::size_t i) const noexcept {
    return {values.data() + offsets[i], end_of(i) - offsets[i]};
  }
  std::span<T> row(std::size_t i) noexcept {
    return {values.data() + offsets[i], end_of(i) - offsets[i]};
  }

  /// Index of the first key >= `key` at or after `from` (size() if none).
  /// Gallops forward from `from`, so a walk over ascending keys costs
  /// O(log gap) per step.
  std::size_t lower_bound(std::uint32_t key, std::size_t from = 0) const
      noexcept {
    std::size_t probe = from;
    for (std::size_t step = 1; probe < keys.size() && keys[probe] < key;
         step *= 2) {
      from = probe + 1;
      probe += step;
    }
    const auto last = keys.begin() + std::min(probe, keys.size());
    return static_cast<std::size_t>(
        std::lower_bound(keys.begin() + from, last, key) - keys.begin());
  }

  /// The values of `key`; empty when the table does not hold it.
  std::span<const T> find(std::uint32_t key) const noexcept {
    const std::size_t i = lower_bound(key);
    if (i == keys.size() || keys[i] != key) return {};
    return row(i);
  }

  /// Append `key`, greater than every key so far, with `run` (nothing when
  /// `run` is empty).
  void push_back(std::uint32_t key, std::span<const T> run) {
    if (run.empty()) return;
    keys.push_back(key);
    offsets.push_back(static_cast<std::uint32_t>(values.size()));
    values.insert(values.end(), run.begin(), run.end());
  }

  /// Replace the values of every edited key, adding the keys the table does
  /// not hold yet, in one linear pass. `edits` are ascending by key, one
  /// per key, each with at least one value.
  void replace(std::span<const FlatEdit<T>> edits) {
    if (edits.empty()) return;
    std::size_t added = 0;
    for (const FlatEdit<T>& edit : edits) added += edit.values.size();
    FlatTable next;
    next.keys.reserve(keys.size() + edits.size());
    next.offsets.reserve(keys.size() + edits.size());
    next.values.reserve(values.size() + added);
    // Keys [from, to) are untouched: they move over as one block.
    const auto copy_keys = [&](std::size_t from, std::size_t to) {
      if (from == to) return;
      const auto shift =
          static_cast<std::uint32_t>(next.values.size() - offsets[from]);
      next.keys.insert(next.keys.end(), keys.begin() + from,
                       keys.begin() + to);
      for (std::size_t k = from; k < to; ++k)
        next.offsets.push_back(offsets[k] + shift);
      next.values.insert(next.values.end(), values.begin() + offsets[from],
                         values.begin() + end_of(to - 1));
    };
    std::size_t i = 0;
    for (const FlatEdit<T>& edit : edits) {
      const std::size_t at = lower_bound(edit.key, i);
      copy_keys(i, at);
      next.push_back(edit.key, edit.values);
      i = at < keys.size() && keys[at] == edit.key ? at + 1 : at;
    }
    copy_keys(i, keys.size());
    *this = std::move(next);
  }

  /// The table cut at `last_day` (see `append_clipped`); keys left with no
  /// value are dropped.
  template <typename Days>
  FlatTable clipped(Day last_day, Days days) const {
    FlatTable out;
    out.keys.reserve(keys.size());
    out.offsets.reserve(keys.size());
    out.values.reserve(values.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::size_t before = out.values.size();
      append_clipped(row(i), last_day, days, out.values);
      if (out.values.size() == before) continue;
      out.keys.push_back(keys[i]);
      out.offsets.push_back(static_cast<std::uint32_t>(before));
    }
    return out;
  }

  friend bool operator==(const FlatTable&, const FlatTable&) = default;
};

}  // namespace pl::util
