// Small string utilities shared across modules. All functions are pure and
// allocation-honest: anything returning std::string allocates, anything
// returning std::string_view only views the input.
#pragma once

#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace ednsm::util {

// Split `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

// Comma-separated list -> its non-empty items ("a,,b," -> {"a","b"}).
[[nodiscard]] std::vector<std::string> split_list(std::string_view csv);

// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

// ASCII-only case transforms (DNS names are ASCII by construction here).
[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept;

// Join `parts` with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Parse a non-negative decimal integer; returns false on overflow or any
// non-digit character (including an empty string).
[[nodiscard]] bool parse_u64(std::string_view s, unsigned long long& out) noexcept;

// parse_u64 narrowed to T with a lower bound, for command-line counts: Err
// unless `s` is all digits and its value lies in [min, T's maximum].
template <std::integral T>
[[nodiscard]] Result<T> parse_count(std::string_view s, T min = 0) {
  unsigned long long v = 0;
  if (!parse_u64(s, v) || v > static_cast<unsigned long long>(std::numeric_limits<T>::max()) ||
      static_cast<T>(v) < min) {
    return Err{"expected an integer >= " + std::to_string(min) + ", got '" + std::string(s) + "'"};
  }
  return static_cast<T>(v);
}

}  // namespace ednsm::util
