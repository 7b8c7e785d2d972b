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

/// One run of a spliced array: `count` values from position `from` of the
/// array itself (kept) or of the fresh values.
struct SpliceRun {
  bool fresh = false;
  std::size_t from = 0;
  std::size_t count = 0;
};

/// Rewrite `values` in place as the concatenation of `runs`, whose kept
/// runs are ascending and disjoint. Kept runs that move down go front to
/// back and those that move up back to front, so no run overwrites a kept
/// one before that has moved; fresh runs go in last. A day's few edits
/// thus cost one memmove of what lies after them, with no new buffer.
template <typename T>
void splice(std::vector<T>& values, std::span<const SpliceRun> runs,
            std::span<const T> fresh) {
  std::vector<std::size_t> to(runs.size());
  std::size_t size = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    to[i] = size;
    size += runs[i].count;
  }
  if (size > values.size()) values.resize(size);
  const auto at = [&](std::size_t index) {
    return values.begin() + static_cast<std::ptrdiff_t>(index);
  };
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (!runs[i].fresh && to[i] < runs[i].from)
      std::copy(at(runs[i].from), at(runs[i].from + runs[i].count), at(to[i]));
  for (std::size_t i = runs.size(); i-- > 0;)
    if (!runs[i].fresh && to[i] > runs[i].from)
      std::copy_backward(at(runs[i].from), at(runs[i].from + runs[i].count),
                         at(to[i] + runs[i].count));
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (runs[i].fresh)
      std::copy_n(fresh.begin() + static_cast<std::ptrdiff_t>(runs[i].from),
                  runs[i].count, at(to[i]));
  values.resize(size);
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

  /// The values of `key`; empty when the table does not hold it. For a
  /// walk over ascending keys: searches from `cursor` (0 for the first
  /// key) and leaves it at the first key >= `key`.
  std::span<const T> find(std::uint32_t key, std::size_t& cursor) const
      noexcept {
    cursor = lower_bound(key, cursor);
    if (cursor == keys.size() || keys[cursor] != key) return {};
    return row(cursor);
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
  /// not hold yet, in place: the keys between two edits and their values
  /// move as blocks (`splice`). `edits` are ascending by key, one per key,
  /// each with at least one value.
  void replace(std::span<const FlatEdit<T>> edits) {
    if (edits.empty()) return;
    // Runs over the keys (and offsets) and over the values, in step: a
    // block of untouched keys, or one edited key with its new values.
    std::vector<SpliceRun> key_runs;
    std::vector<SpliceRun> value_runs;
    std::vector<std::uint32_t> fresh_keys;
    std::vector<T> fresh_values;
    std::size_t i = 0;
    const auto keep_to = [&](std::size_t to) {
      if (to == i) return;
      key_runs.push_back({false, i, to - i});
      value_runs.push_back({false, offsets[i], end_of(to - 1) - offsets[i]});
      i = to;
    };
    for (const FlatEdit<T>& edit : edits) {
      const std::size_t at = lower_bound(edit.key, i);
      keep_to(at);
      key_runs.push_back({true, fresh_keys.size(), 1});
      value_runs.push_back({true, fresh_values.size(), edit.values.size()});
      fresh_keys.push_back(edit.key);
      fresh_values.insert(fresh_values.end(), edit.values.begin(),
                          edit.values.end());
      if (at < keys.size() && keys[at] == edit.key) i = at + 1;
    }
    keep_to(keys.size());
    splice<std::uint32_t>(keys, key_runs, fresh_keys);
    splice<T>(values, value_runs, fresh_values);
    // An edited key's offset is where its values landed; an untouched
    // block's offsets move with its values.
    splice<std::uint32_t>(offsets, key_runs,
                          std::vector<std::uint32_t>(fresh_keys.size()));
    for (std::size_t r = 0, key = 0, value = 0; r < key_runs.size(); ++r) {
      if (key_runs[r].fresh) {
        offsets[key] = static_cast<std::uint32_t>(value);
      } else if (value != value_runs[r].from) {
        const auto shift =
            static_cast<std::uint32_t>(value - value_runs[r].from);
        for (std::size_t k = key; k < key + key_runs[r].count; ++k)
          offsets[k] += shift;
      }
      key += key_runs[r].count;
      value += value_runs[r].count;
    }
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
