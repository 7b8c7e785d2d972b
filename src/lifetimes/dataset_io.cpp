#include "lifetimes/dataset_io.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <string_view>

#include "util/csv.hpp"
#include "util/strings.hpp"

namespace pl::lifetimes {

namespace {

/// Value of `"key":"..."` in a Listing-1 JSON line; nullopt when absent.
std::optional<std::string_view> string_field(std::string_view line,
                                             std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

/// Value of `"key":123`; nullopt when absent or not a number.
std::optional<std::string_view> number_field(std::string_view line,
                                             std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  if (end == begin) return std::nullopt;
  return line.substr(begin, end - begin);
}

pl::Status malformed(std::string_view what, std::size_t line_number) {
  std::string message = "malformed ";
  message += what;
  message += " record on line ";
  message += std::to_string(line_number);
  return pl::data_loss_error(std::move(message));
}

pl::Status stream_write_error(std::string_view what) {
  std::string message = "stream write failed while saving ";
  message += what;
  return pl::unavailable_error(std::move(message));
}

pl::Status overlapping(std::string_view what, asn::Asn asn) {
  std::string message = "duplicate or overlapping ";
  message += what;
  message += " lifetimes for AS";
  message += asn::to_string(asn);
  return pl::data_loss_error(std::move(message));
}

}  // namespace

std::string admin_record_json(const AdminLifetime& life) {
  std::string out;
  out += "{\"ASN\":";
  out += asn::to_string(life.asn);
  out += ",\"regDate\":\"";
  out += util::format_iso(life.registration_date);
  out += "\",\"startdate\":\"";
  out += util::format_iso(life.days.first);
  out += "\",\"enddate\":\"";
  out += util::format_iso(life.days.last);
  out += "\",\"status\":\"allocated\",\"registry\":\"";
  out += asn::file_token(life.registry);
  out += "\"}";
  return out;
}

std::string op_record_json(const OpLifetime& life) {
  std::string out;
  out += "{\"ASN\":";
  out += asn::to_string(life.asn);
  out += ",\"startdate\":\"";
  out += util::format_iso(life.days.first);
  out += "\",\"enddate\":\"";
  out += util::format_iso(life.days.last);
  out += "\"}";
  return out;
}

pl::Status save_admin_json(std::ostream& out, const AdminDataset& dataset) {
  for (const AdminLifetime& life : dataset.lifetimes)
    out << admin_record_json(life) << '\n';
  if (!out) return stream_write_error("admin dataset");
  return {};
}

pl::Status save_op_json(std::ostream& out, const OpDataset& dataset) {
  for (const OpLifetime& life : dataset.lifetimes)
    out << op_record_json(life) << '\n';
  if (!out) return stream_write_error("op dataset");
  return {};
}

pl::Status save_admin_csv(std::ostream& out, const AdminDataset& dataset) {
  util::CsvWriter writer(out);
  writer.write_row({"asn", "reg_date", "start_date", "end_date", "registry",
                    "country", "open_ended", "transferred"});
  for (const AdminLifetime& life : dataset.lifetimes)
    writer.write_row({asn::to_string(life.asn),
                      util::format_iso(life.registration_date),
                      util::format_iso(life.days.first),
                      util::format_iso(life.days.last),
                      std::string(asn::file_token(life.registry)),
                      life.country.to_string(),
                      life.open_ended ? "1" : "0",
                      life.transferred ? "1" : "0"});
  if (!out) return stream_write_error("admin dataset (csv)");
  return {};
}

pl::Status save_op_csv(std::ostream& out, const OpDataset& dataset) {
  util::CsvWriter writer(out);
  writer.write_row({"asn", "start_date", "end_date"});
  for (const OpLifetime& life : dataset.lifetimes)
    writer.write_row({asn::to_string(life.asn),
                      util::format_iso(life.days.first),
                      util::format_iso(life.days.last)});
  if (!out) return stream_write_error("op dataset (csv)");
  return {};
}

pl::Status save_admin_json(const std::string& path,
                           const AdminDataset& dataset) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return pl::unavailable_error("cannot open " + path);
  return save_admin_json(static_cast<std::ostream&>(out), dataset);
}

pl::Status save_op_json(const std::string& path, const OpDataset& dataset) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return pl::unavailable_error("cannot open " + path);
  return save_op_json(static_cast<std::ostream&>(out), dataset);
}

pl::StatusOr<AdminDataset> load_admin_json(std::istream& in) {
  AdminDataset dataset;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto asn_text = number_field(trimmed, "ASN");
    const auto reg_text = string_field(trimmed, "regDate");
    const auto start_text = string_field(trimmed, "startdate");
    const auto end_text = string_field(trimmed, "enddate");
    const auto registry_text = string_field(trimmed, "registry");
    if (!asn_text || !reg_text || !start_text || !end_text || !registry_text)
      return malformed("admin", line_number);
    const auto asn = asn::parse_asn(*asn_text);
    const auto reg = util::parse_iso_date(*reg_text);
    const auto start = util::parse_iso_date(*start_text);
    const auto end = util::parse_iso_date(*end_text);
    const auto registry = asn::parse_rir(*registry_text);
    if (!asn || !reg || !start || !end || !registry || *end < *start)
      return malformed("admin", line_number);
    AdminLifetime life;
    life.asn = *asn;
    life.registration_date = *reg;
    life.days = util::DayInterval{*start, *end};
    life.registry = *registry;
    dataset.lifetimes.push_back(life);
    dataset.archive_end = std::max(dataset.archive_end, *end);
  }
  if (in.bad()) return pl::unavailable_error("stream read failed");
  // Restore the (asn, start) order the builder guarantees. Then any
  // same-ASN neighbour whose intervals touch is a duplicate or an overlap —
  // the builder never emits those, so the file is damaged or hand-edited.
  // Reject rather than serve it.
  std::sort(dataset.lifetimes.begin(), dataset.lifetimes.end(),
            AsnStartOrder{});
  for (std::size_t i = 1; i < dataset.lifetimes.size(); ++i) {
    const AdminLifetime& prev = dataset.lifetimes[i - 1];
    const AdminLifetime& cur = dataset.lifetimes[i];
    if (prev.asn == cur.asn && prev.days.last >= cur.days.first)
      return overlapping("admin", cur.asn);
  }
  return dataset;
}

pl::StatusOr<OpDataset> load_op_json(std::istream& in) {
  OpDataset dataset;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto asn_text = number_field(trimmed, "ASN");
    const auto start_text = string_field(trimmed, "startdate");
    const auto end_text = string_field(trimmed, "enddate");
    if (!asn_text || !start_text || !end_text)
      return malformed("op", line_number);
    const auto asn = asn::parse_asn(*asn_text);
    const auto start = util::parse_iso_date(*start_text);
    const auto end = util::parse_iso_date(*end_text);
    if (!asn || !start || !end || *end < *start)
      return malformed("op", line_number);
    dataset.lifetimes.push_back(
        OpLifetime{*asn, util::DayInterval{*start, *end}});
  }
  if (in.bad()) return pl::unavailable_error("stream read failed");
  // Restore the (asn, start) order; reject overlaps as above.
  std::sort(dataset.lifetimes.begin(), dataset.lifetimes.end(),
            AsnStartOrder{});
  for (std::size_t i = 1; i < dataset.lifetimes.size(); ++i) {
    const OpLifetime& prev = dataset.lifetimes[i - 1];
    const OpLifetime& cur = dataset.lifetimes[i];
    if (prev.asn == cur.asn && prev.days.last >= cur.days.first)
      return overlapping("op", cur.asn);
  }
  return dataset;
}

pl::StatusOr<AdminDataset> load_admin_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return pl::unavailable_error("cannot open " + path);
  return load_admin_json(static_cast<std::istream&>(in));
}

pl::StatusOr<OpDataset> load_op_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return pl::unavailable_error("cannot open " + path);
  return load_op_json(static_cast<std::istream&>(in));
}

}  // namespace pl::lifetimes
