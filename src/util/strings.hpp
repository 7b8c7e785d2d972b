// Small string helpers shared by the delegation-file parser and report
// renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pl::util {

/// Split on a single-character delimiter; keeps empty fields (delegation
/// files use '|' with meaningful empty columns).
std::vector<std::string_view> split(std::string_view text, char delimiter);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view text) noexcept;

/// ASCII lower-casing (registry names are case-insensitive in the wild).
std::string to_lower(std::string_view text);

/// Iterate lines of a blob without copying; trailing '\n' is not required on
/// the final line.
std::vector<std::string_view> lines(std::string_view blob);

/// Format a count with thousands separators ("126,953") — bench output is
/// compared visually against the paper's tables.
std::string with_commas(std::int64_t value);

/// Format a ratio as a percentage with one decimal ("78.6%").
std::string percent(double fraction, int decimals = 1);

}  // namespace pl::util
