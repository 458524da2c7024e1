//===- setcon/Constructor.h - Constructor signatures ------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructors of the set-constraint language (Section 2.1 of the paper).
/// Each constructor c has a unique signature giving its arity and the
/// variance of every argument: covariant arguments make c(...) grow as the
/// argument grows, contravariant arguments shrink it. Andersen's analysis
/// uses ref(l, get, set) with a contravariant third argument and lamN
/// constructors with contravariant parameters.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_CONSTRUCTOR_H
#define POCE_SETCON_CONSTRUCTOR_H

#include "support/IdIndex.h"
#include "support/SmallVector.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace poce {

/// Variance of one constructor argument.
enum class Variance : uint8_t {
  Covariant,
  Contravariant,
};

/// Dense id of a registered constructor.
using ConsId = uint32_t;

/// Signature of a constructor: name plus per-argument variance.
struct ConstructorSignature {
  std::string Name;
  SmallVector<Variance, 4> ArgVariance;

  unsigned arity() const { return static_cast<unsigned>(ArgVariance.size()); }
};

/// Registry of constructors. Names are unique; re-registering a name with
/// the same signature returns the existing id, and re-registering with a
/// different signature is a fatal programming error.
class ConstructorTable {
public:
  /// Registers (or looks up) a constructor.
  ConsId getOrCreate(std::string_view Name,
                     const SmallVectorImpl<Variance> &ArgVariance);

  /// Convenience overload taking an initializer list of variances.
  ConsId getOrCreate(std::string_view Name,
                     std::initializer_list<Variance> ArgVariance);

  /// Returns the id of \p Name or NotFound.
  ConsId lookup(std::string_view Name) const;

  const ConstructorSignature &signature(ConsId Id) const;

  uint32_t size() const {
    return static_cast<uint32_t>(Signatures.size());
  }

  static constexpr ConsId NotFound = ~0U;

private:
  /// Signatures in id order, found by name through NameIndex.
  std::vector<ConstructorSignature> Signatures;
  IdIndex NameIndex;
};

} // namespace poce

#endif // POCE_SETCON_CONSTRUCTOR_H
