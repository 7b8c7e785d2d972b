// Dataset serialization in the shape the paper publishes (Listing 1):
// JSON-lines records for administrative and operational lifetimes, plus a
// CSV form for spreadsheet users.
//
// Every entry point returns pl::Status / pl::StatusOr — the bool/exception
// mix older callers juggled is gone, and the legacy void `write_*` shims
// are gone with it. Loaders validate shape as well as syntax: duplicate or
// overlapping lifetimes for one ASN are kDataLoss, not silently served.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "util/status.hpp"

namespace pl::lifetimes {

/// One JSON object per line, fields matching the paper's Listing 1:
/// {"ASN":..,"regDate":"..","startdate":"..","enddate":"..",
///  "status":"allocated","registry":".."}
pl::Status save_admin_json(std::ostream& out, const AdminDataset& dataset);

/// {"ASN":..,"startdate":"..","enddate":".."}
pl::Status save_op_json(std::ostream& out, const OpDataset& dataset);

/// CSV with a header row.
pl::Status save_admin_csv(std::ostream& out, const AdminDataset& dataset);
pl::Status save_op_csv(std::ostream& out, const OpDataset& dataset);

/// File-path variants (open + save + flush; kUnavailable on I/O failure).
pl::Status save_admin_json(const std::string& path,
                           const AdminDataset& dataset);
pl::Status save_op_json(const std::string& path, const OpDataset& dataset);

/// Parse a Listing-1 JSON-lines stream back into a dataset. Blank lines are
/// skipped; a malformed line fails with kDataLoss naming the line number.
/// The JSON form carries only the Listing-1 fields, so `country`,
/// `opaque_id`, `open_ended` and `transferred` come back defaulted.
/// Records may arrive in any order; the dataset comes back sorted by
/// (asn, start), and the admin `archive_end` is the latest end date.
pl::StatusOr<AdminDataset> load_admin_json(std::istream& in);
pl::StatusOr<OpDataset> load_op_json(std::istream& in);

/// File-path variants (kUnavailable when the file cannot be opened).
pl::StatusOr<AdminDataset> load_admin_json(const std::string& path);
pl::StatusOr<OpDataset> load_op_json(const std::string& path);

/// Single-record renderers (used by examples and tests).
std::string admin_record_json(const AdminLifetime& life);
std::string op_record_json(const OpLifetime& life);

}  // namespace pl::lifetimes
