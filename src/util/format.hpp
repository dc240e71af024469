// Number formatting without iostreams.
#pragma once

#include <charconv>
#include <string>

namespace repl {

/// `value` exactly as `std::ostream << value` prints it at the default
/// precision: printf's "%g" with six significant digits, which
/// std::to_chars with chars_format::general and precision 6 is specified
/// to reproduce. Component names are built with it, and snapshots record
/// those names, so the two spellings must never differ.
inline std::string format_general(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 6);
  return std::string(buffer, result.ptr);
}

}  // namespace repl
