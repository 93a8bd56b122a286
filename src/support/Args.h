//===- support/Args.h - Command-line value parsing --------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict parsing of numeric flag values shared by the command-line
/// tools. atoi/strtoull accept far too much: `-1` wraps to 2^32-1 (or
/// 2^64-1), `4x` silently means 4 and `abc` means 0.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_ARGS_H
#define WIRESORT_SUPPORT_ARGS_H

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace wiresort::support {

/// Parses \p Text as a count: decimal digits only (no sign, no
/// whitespace, no trailing characters), at most UINT32_MAX. \returns
/// nullopt for anything else.
inline std::optional<uint32_t> parseCount(std::string_view Text) {
  uint32_t Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return Value;
}

} // namespace wiresort::support

#endif // WIRESORT_SUPPORT_ARGS_H
