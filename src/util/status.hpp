// Error propagation without exceptions: pl::Status and pl::StatusOr<T>.
//
// The ingestion layer already reports recoverable faults through
// robust::ErrorSink (a *stream* of diagnostics); Status is the complementary
// single-shot form for API boundaries that either succeed or fail — dataset
// loaders, snapshot construction, incremental day-advance. Both types are
// [[nodiscard]]: a dropped Status is a swallowed failure, which is exactly
// the bool/exception mix this header replaces.
//
// The code set is the subset of the canonical gRPC/Abseil vocabulary the
// library actually produces; keeping the names standard makes the intent of
// call sites legible without a legend.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace pl {

enum class StatusCode : std::uint8_t {
  kOk,
  kInvalidArgument,     ///< caller passed something malformed (bad day, dup)
  kNotFound,            ///< named thing does not exist (file, ASN)
  kFailedPrecondition,  ///< object state forbids the call (query-only snap)
  kDataLoss,            ///< input exists but cannot be decoded (bad record)
  kUnavailable,         ///< I/O failed (open/read/write error)
  kInternal,            ///< invariant violation on our side
};

constexpr std::string_view status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kFailedPrecondition: return "failed-precondition";
    case StatusCode::kDataLoss: return "data-loss";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Success or a (code, message) failure. Cheap to copy on the success path:
/// an OK status carries no allocation.
class [[nodiscard]] Status {
 public:
  /// Default is OK, so `return {};` reads as "success".
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "invalid-argument: day 2021-03-02 is not the next day" — log-friendly.
  std::string to_string() const {
    if (ok()) return "ok";
    std::string out(status_code_name(code_));
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status invalid_argument_error(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
inline Status not_found_error(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
inline Status failed_precondition_error(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}
inline Status data_loss_error(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
inline Status unavailable_error(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}
inline Status internal_error(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

/// A value or the Status explaining why there is none. Constructing from a
/// `T` yields OK; constructing from a non-OK Status yields the error. The
/// value accessors require `ok()` — checked callers branch on status first,
/// the same discipline as StatusOr elsewhere.
///
/// Reading through a temporary StatusOr yields the value itself, moved out,
/// never a reference into the dying temporary: `*make()` and
/// `make().value()` return `T`, and `make()->field` does not compile. That
/// makes `for (x : service.query(q)->lookups)` — a dangling read in C++20
/// range-for — a compile error (tests/statusor_temporary_probe.cpp).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value)  // NOLINT(google-explicit-constructor): by design
      : value_(std::move(value)) {}

  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {}

  bool ok() const noexcept { return status_.ok() && value_.has_value(); }
  const Status& status() const noexcept { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  T operator*() && { return std::move(*value_); }
  const T* operator->() const& { return &*value_; }
  T* operator->() & { return &*value_; }
  const T* operator->() const&& = delete;
  T* operator->() && = delete;

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace pl
