// Always-on flight recorder: the last N structured events before a crash.
//
// The serving layer records one POD event per query (and per durability
// transition) into fixed-size per-thread ring buffers. Recording is two
// relaxed atomic operations plus four relaxed stores — cheap enough to stay
// on in production — and allocates nothing after construction (the
// util/arena.hpp discipline: trivially-destructible payloads, zero
// steady-state allocation). When DurableService quarantines a day, degrades
// its HealthReport, or a robust::CrashPoints kill fires, the recorder is
// dumped to a CRC-framed `pl-flight/1` file so the events leading up to the
// failure survive the process.
//
// Determinism: RequestIds derive from a per-service sequence counter plus
// the in-batch item index (no wall clock, no thread identity), so the same
// call sequence yields the same ids under any PL_THREADS setting. The
// `attribution()` view sorts events by (request, kind, detail, a) with the
// forensic sequence number cleared — that view is bit-identical across
// thread counts; `events()` keeps arrival order for post-mortems.
//
// Ring semantics: each of the kFlightRings rings holds `capacity` events;
// writers reserve a slot with a relaxed fetch_add and overwrite the oldest
// entry on wrap. Overwrites are counted, never blocked on. Event payloads
// are stored as relaxed atomic words so concurrent record/snapshot is
// data-race-free; a snapshot taken while writers are mid-wrap may see a
// torn event, which the CRC framing does not hide — quiesce writers first
// when exact contents matter (every dump site in src/serve does).
//
// Compile-time kill switch: under -DPL_OBS_OFF the recorder is an empty
// shell (obs_off_check static_asserts it), record() is a no-op, and dumps
// are valid zero-event files — crash-recovery tests keep passing in every
// build configuration.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef PL_OBS_OFF
#include <algorithm>
#include <atomic>
#endif

namespace pl::obs {

/// Deterministic per-query identity. Derived, never random: see
/// `derive_request_id`.
struct RequestId {
  std::uint64_t value = 0;
  friend auto operator<=>(const RequestId&, const RequestId&) = default;
};

namespace detail {

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

}  // namespace detail

/// RequestId = mix(stream ^ golden*sequence ^ prime*item). `stream`
/// distinguishes services, `sequence` is the service's monotonically
/// increasing API-call counter, `item` the index within a batch (0 for
/// point calls). Pure integer math — identical across thread counts. A
/// single avalanche pass: mix64 is bijective, so ids differ whenever the
/// seeded inputs differ, and the derivation sits on the per-query hot path
/// inside the <=3% always-on budget that bench_serve enforces — one
/// multiply chain, not two.
constexpr RequestId derive_request_id(std::uint64_t stream,
                                      std::uint64_t sequence,
                                      std::uint64_t item) noexcept {
  return RequestId{detail::mix64(stream ^ sequence * 0x9E3779B97F4A7C15ull ^
                                 item * 0xC2B2AE3D27D4EB4Full)};
}

/// Default stream tag for a stand-alone QueryService; DurableService uses
/// its own so replayed and live queries stay distinguishable.
inline constexpr std::uint64_t kQueryStream = 0x706C2D71756572ull;
inline constexpr std::uint64_t kDurableStream = 0x706C2D64757261ull;

/// What happened. Values are part of the pl-flight/1 wire format — append
/// only, never renumber.
enum class EventKind : std::uint32_t {
  kLookup = 1,      ///< point or batch ASN lookup; a = snapshot day count
  kAlive = 2,       ///< alive_on point or batch item; a = queried day
  kCensus = 3,      ///< census(day); a = queried day
  kScan = 4,        ///< scan(query); a = matches returned
  kAdvanceDay = 5,  ///< QueryService::advance_day; a = new day
  kOpen = 6,        ///< DurableService::open finished; a = last durable day
  kReplayDay = 7,   ///< one WAL day replayed; a = day
  kAdvance = 8,     ///< DurableService::advance_day; a = day
  kCheckpoint = 9,  ///< checkpoint written; a = snapshot day
  kQuarantine = 10, ///< day quarantined; a = day
  kDegraded = 11,   ///< HealthReport turned degraded; a = last durable day
  kCrash = 12,      ///< CrashPoints kill fired; detail = crc32(site), a = day
  kStage = 13,      ///< pipeline stage finished; detail = stage ordinal,
                    ///< a = wall-clock microseconds (nondeterministic)
};

/// Bit layout of FlightEvent::detail for query events (kLookup..kAdvanceDay):
///   bits 0-1   cache result (kCacheNone / kCacheHit / kCacheMiss)
///   bits 2-9   cache shard index (0 when uncached)
///   bits 10-17 status code (robust::StatusCode numeric value; 0 = ok)
///   bit  18    found / answered flag
/// The query service answers without a cache and writes bits 0-9 as 0
/// (kCacheNone, shard 0); kCacheHit/kCacheMiss stay so that dumps written
/// by older builds still render.
/// Durability events put event-specific payloads (e.g. crc32 of the crash
/// site) in the full 32 bits instead.
inline constexpr std::uint32_t kCacheNone = 0;
inline constexpr std::uint32_t kCacheHit = 1;
inline constexpr std::uint32_t kCacheMiss = 2;

constexpr std::uint32_t query_detail(std::uint32_t cache, std::uint32_t shard,
                                     std::uint32_t status,
                                     bool found) noexcept {
  return (cache & 0x3u) | ((shard & 0xFFu) << 2) | ((status & 0xFFu) << 10) |
         (found ? (1u << 18) : 0u);
}
constexpr std::uint32_t detail_cache(std::uint32_t detail) noexcept {
  return detail & 0x3u;
}
constexpr std::uint32_t detail_shard(std::uint32_t detail) noexcept {
  return (detail >> 2) & 0xFFu;
}
constexpr std::uint32_t detail_status(std::uint32_t detail) noexcept {
  return (detail >> 10) & 0xFFu;
}
constexpr bool detail_found(std::uint32_t detail) noexcept {
  return ((detail >> 18) & 1u) != 0;
}

/// One recorded event: 32 bytes, trivially destructible, no pointers.
struct FlightEvent {
  std::uint64_t request = 0;  ///< RequestId::value (0 for service events)
  std::uint32_t kind = 0;     ///< EventKind numeric value
  std::uint32_t detail = 0;   ///< packed per-kind payload (see above)
  std::int64_t a = 0;         ///< per-kind argument (day, count, ...)
  std::uint64_t seq = 0;      ///< recorder-global arrival number (forensic
                              ///< order only; cleared in attribution())
  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};
static_assert(sizeof(FlightEvent) == 32);

/// Deterministic ordering for the attribution view — seq excluded.
constexpr bool attribution_less(const FlightEvent& x,
                                const FlightEvent& y) noexcept {
  if (x.request != y.request) return x.request < y.request;
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.detail != y.detail) return x.detail < y.detail;
  return x.a < y.a;
}

/// Load/parse outcome of a flight dump. Mirrors the robust layer's status
/// taxonomy without depending on it (pl_robust links pl_obs, not the other
/// way around).
enum class FlightIoStatus : std::uint32_t {
  kOk = 0,
  kNotFound = 1,  ///< no file at the path
  kIoError = 2,   ///< open/read/write failed
  kDataLoss = 3,  ///< framing damaged; events carry the salvage
};

/// A parsed pl-flight/1 dump. On kDataLoss, `events` holds every whole
/// event that survived (prefix salvage) and the counters are best-effort.
struct FlightRead {
  FlightIoStatus status = FlightIoStatus::kOk;
  std::vector<FlightEvent> events;
  std::uint64_t total_recorded = 0;  ///< lifetime records incl. overwritten
  std::uint64_t overwritten = 0;     ///< events lost to ring wrap
  bool ok() const noexcept { return status == FlightIoStatus::kOk; }
};

/// Rings available to writers; threads map round-robin on first record.
inline constexpr std::size_t kFlightRings = 16;
/// Default events retained per ring.
inline constexpr std::size_t kFlightDefaultCapacity = 1024;

#ifndef PL_OBS_OFF

class FlightRecorder {
 public:
  /// `capacity` rounds up to the next power of two: the record fast path
  /// masks instead of dividing, and an integer division per query would by
  /// itself blow most of the <=3% always-on budget bench_serve enforces.
  explicit FlightRecorder(std::size_t capacity = kFlightDefaultCapacity)
      : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)) {
    for (Ring& ring : rings_)
      ring.words =
          std::vector<std::atomic<std::uint64_t>>(capacity_ * kWordsPerEvent);
  }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event. Lock-free, allocation-free, overwrites the oldest
  /// entry of this thread's ring when full. No atomic RMW at all: each
  /// ring has a single writer (threads map round-robin, so writers only
  /// share a ring beyond kFlightRings concurrent threads — there, late
  /// records may overwrite each other and the lifetime counter can
  /// undercount, a documented trade for a single-digit-ns record path).
  /// `seq` derives from the ring position as pos * kFlightRings + ring:
  /// unique across the recorder, exactly arrival-ordered within a ring,
  /// approximate across threads — the only consumers of cross-thread
  /// order are human timeline readers, and a global counter here would
  /// double the per-query tax bench_serve budgets at <=3%.
  void record(FlightEvent event) noexcept {
    const std::size_t ring_idx = ring_index();
    Ring& ring = rings_[ring_idx];
    const std::uint64_t pos = ring.head.load(std::memory_order_relaxed);
    ring.head.store(pos + 1, std::memory_order_relaxed);
    event.seq = pos * kFlightRings + ring_idx;
    const std::size_t base =
        (pos & (capacity_ - 1)) * kWordsPerEvent;
    ring.words[base + 0].store(event.request, std::memory_order_relaxed);
    ring.words[base + 1].store(
        (static_cast<std::uint64_t>(event.kind) << 32) | event.detail,
        std::memory_order_relaxed);
    ring.words[base + 2].store(static_cast<std::uint64_t>(event.a),
                               std::memory_order_relaxed);
    ring.words[base + 3].store(event.seq, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Lifetime events recorded (including overwritten ones).
  std::uint64_t total_recorded() const noexcept {
    std::uint64_t total = 0;
    for (const Ring& ring : rings_)
      total += ring.head.load(std::memory_order_relaxed);
    return total;
  }

  /// Events lost to ring wrap.
  std::uint64_t overwritten() const noexcept {
    std::uint64_t lost = 0;
    for (const Ring& ring : rings_) {
      const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
      if (head > capacity_) lost += head - capacity_;
    }
    return lost;
  }

  /// Retained events in arrival (seq) order — the post-mortem view.
  std::vector<FlightEvent> events() const {
    std::vector<FlightEvent> out;
    for (const Ring& ring : rings_) {
      const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
      const std::uint64_t retained =
          head < capacity_ ? head : static_cast<std::uint64_t>(capacity_);
      for (std::uint64_t i = 0; i < retained; ++i) {
        const std::size_t base = static_cast<std::size_t>(i) * kWordsPerEvent;
        FlightEvent event;
        event.request = ring.words[base + 0].load(std::memory_order_relaxed);
        const std::uint64_t kd =
            ring.words[base + 1].load(std::memory_order_relaxed);
        event.kind = static_cast<std::uint32_t>(kd >> 32);
        event.detail = static_cast<std::uint32_t>(kd);
        event.a = static_cast<std::int64_t>(
            ring.words[base + 2].load(std::memory_order_relaxed));
        event.seq = ring.words[base + 3].load(std::memory_order_relaxed);
        out.push_back(event);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const FlightEvent& x, const FlightEvent& y) {
                return x.seq < y.seq;
              });
    return out;
  }

  /// Retained events in deterministic attribution order, seq cleared —
  /// bit-identical across PL_THREADS settings for the same call sequence
  /// (as long as nothing was overwritten).
  std::vector<FlightEvent> attribution() const {
    std::vector<FlightEvent> out = events();
    for (FlightEvent& event : out) event.seq = 0;
    std::sort(out.begin(), out.end(), [](const FlightEvent& x,
                                         const FlightEvent& y) {
      return attribution_less(x, y);
    });
    return out;
  }

 private:
  static constexpr std::size_t kWordsPerEvent = 4;

  // Constant-initialized TLS slot (no per-access init guard) with lazy
  // registration behind a predictable branch: the record fast path pays a
  // plain TLS load plus one never-taken-after-first-call compare.
  static std::size_t ring_index() noexcept {
    thread_local std::size_t mine = kFlightRings;
    if (mine == kFlightRings) [[unlikely]] {
      static std::atomic<std::size_t> next{0};
      mine = next.fetch_add(1, std::memory_order_relaxed) % kFlightRings;
    }
    return mine;
  }

  static constexpr std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};
    // Events live as relaxed atomic words: concurrent record/snapshot is
    // data-race-free. Sized once at construction, never resized.
    std::vector<std::atomic<std::uint64_t>> words;
  };

  std::size_t capacity_;
  Ring rings_[kFlightRings];
};

#else  // PL_OBS_OFF — empty shell, enforced zero-cost by obs_off_check.

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t = 0) noexcept {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  void record(FlightEvent) noexcept {}
  std::size_t capacity() const noexcept { return 0; }
  std::uint64_t total_recorded() const noexcept { return 0; }
  std::uint64_t overwritten() const noexcept { return 0; }
  std::vector<FlightEvent> events() const { return {}; }
  std::vector<FlightEvent> attribution() const { return {}; }
};

#endif  // PL_OBS_OFF

/// Serialize the recorder's retained events (arrival order) as a CRC-framed
/// pl-flight/1 file. Under PL_OBS_OFF this writes a valid zero-event dump,
/// so recovery tooling finds a parseable file in every build configuration.
FlightIoStatus write_flight(const std::string& path,
                            const FlightRecorder& recorder);

/// Same frame, explicit contents — what the tests and tools use.
FlightIoStatus write_flight_events(const std::string& path,
                                   const std::vector<FlightEvent>& events,
                                   std::uint64_t total_recorded,
                                   std::uint64_t overwritten);

/// Parse a pl-flight/1 file. Truncation or bit damage yields kDataLoss with
/// every whole surviving event salvaged — never a crash.
FlightRead read_flight(const std::string& path);

/// Human-readable rendering of a parsed dump: header counters plus the last
/// `tail` events, one per line.
std::string render_flight_text(const FlightRead& read, std::size_t tail = 32);

/// Symbolic name for an EventKind value ("lookup", "crash", ...; "?" for
/// unknown) — shared by the renderer and pl-statusz.
std::string_view event_kind_name(std::uint32_t kind);

}  // namespace pl::obs
