//===- support/StringInterner.h - String uniquing ---------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings to dense 32-bit ids. Constructor names in the solver
/// are compared by id. The strings live in one vector in id order, found
/// through an IdIndex: a lookup hashes the caller's string_view directly,
/// and only a string interned for the first time is copied, once.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_STRINGINTERNER_H
#define POCE_SUPPORT_STRINGINTERNER_H

#include "support/IdIndex.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace poce {

/// Maps strings to dense ids and back. Ids are assigned in first-seen
/// order, so interning the same sequence of strings always yields the same
/// ids — important for reproducible experiments.
class StringInterner {
public:
  /// Returns the id for \p Str, interning it if new.
  uint32_t intern(std::string_view Str);

  /// Returns the id for \p Str, or NotFound if it was never interned.
  /// Never interns.
  uint32_t lookup(std::string_view Str) const;

  /// Returns the string for a previously returned id. The reference is
  /// valid until the next intern().
  const std::string &str(uint32_t Id) const;

  uint32_t size() const { return static_cast<uint32_t>(Strings.size()); }

  static constexpr uint32_t NotFound = ~0U;

private:
  std::vector<std::string> Strings;
  IdIndex Index;
};

} // namespace poce

#endif // POCE_SUPPORT_STRINGINTERNER_H
