// Checked numeric command-line arguments, shared by the hlcs tools.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace hlcs::cli {

/// `text` as a whole unsigned number in [0, max]: decimal, or
/// hexadecimal after a 0x prefix.  Anything else -- empty, a sign,
/// trailing characters, out of range -- prints one line naming `flag`
/// and exits with status 2.
template <class T = std::uint64_t>
T parse_number(std::string_view flag, std::string_view text,
               std::uint64_t max = std::numeric_limits<T>::max()) {
  std::string_view digits = text;
  int base = 10;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v, base);
  if (digits.empty() || ec != std::errc{} || ptr != end || v > max) {
    std::fprintf(stderr,
                 "error: %.*s expects a number from 0 to %llu, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<unsigned long long>(max),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return static_cast<T>(v);
}

}  // namespace hlcs::cli
