// Compact ISO 3166-1 alpha-2 country codes. Delegation records carry the
// country of the holder organization; the paper's per-country analyses
// (China visibility, APNIC country evolution) key on these.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn/rir.hpp"

namespace pl::asn {

/// Two uppercase ASCII letters packed into 16 bits. The all-zero value is
/// "unknown" (delegation files occasionally carry "ZZ" or empty codes).
class CountryCode {
 public:
  constexpr CountryCode() = default;

  static std::optional<CountryCode> parse(std::string_view text) noexcept;

  /// Construct from two letters known to be valid at compile time.
  static constexpr CountryCode literal(char a, char b) noexcept {
    CountryCode cc;
    cc.packed_ = static_cast<std::uint16_t>((a << 8) | b);
    return cc;
  }

  std::string to_string() const;

  constexpr bool unknown() const noexcept { return packed_ == 0; }

  /// The two letters as one 16-bit key (0 = unknown); a dense table index.
  constexpr std::uint16_t packed() const noexcept { return packed_; }

  friend constexpr auto operator<=>(const CountryCode&,
                                    const CountryCode&) = default;

 private:
  std::uint16_t packed_ = 0;
};

inline constexpr CountryCode kUnknownCountry{};

/// A realistic per-RIR pool of countries with allocation weights, used by
/// the registry simulator so per-country statistics (Table 4, 6.3) have the
/// paper's shape: e.g. US dominates ARIN (>92%), Brazil dominates LACNIC,
/// India/Australia/Indonesia/China lead APNIC, Russia leads RIPE.
struct CountryWeight {
  CountryCode country;
  double weight;  ///< relative share of new allocations
};

/// Country pool for one RIR. Weights are era-dependent for APNIC (the paper
/// tracks India overtaking Australia between 2010 and 2021); `year` selects
/// the era.
std::vector<CountryWeight> country_pool(Rir rir, int year);

}  // namespace pl::asn
