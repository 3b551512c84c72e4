// Strict decimal parsing for the command-line tools' numeric arguments.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace realm::cli {

/// The whole of `s` must be a decimal integer in [lo, hi].  Anything else
/// ("abc", "16x", "-1", overflow) prints a message naming `flag` and exits
/// 2, so a typo never runs with a substituted value such as 0.
inline std::uint64_t parse_u64_flag(const char* flag, const char* s, std::uint64_t lo,
                                    std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '\0' || end == nullptr || *end != '\0' || errno == ERANGE ||
      s[0] == '-' || v < lo || v > hi) {
    std::fprintf(stderr, "bad value for %s: '%s' (expected %llu..%llu)\n", flag, s,
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  return v;
}

}  // namespace realm::cli
