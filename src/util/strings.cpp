#include "util/strings.hpp"

#include <cmath>
#include <cstdio>

namespace pl::util {

std::vector<std::string_view> split(std::string_view text, char delimiter) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) noexcept {
  const auto* space = " \t\r\n";
  const auto begin = text.find_first_not_of(space);
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(space);
  return text.substr(begin, end - begin + 1);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return out;
}

std::vector<std::string_view> lines(std::string_view blob) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start < blob.size()) {
    std::size_t pos = blob.find('\n', start);
    if (pos == std::string_view::npos) pos = blob.size();
    std::string_view line = blob.substr(start, pos - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out.push_back(line);
    start = pos + 1;
  }
  return out;
}

std::string with_commas(std::int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  if (negative) out.push_back('-');
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string percent(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace pl::util
