//===- andersen/Steensgaard.h - Unification-based points-to ----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Steensgaard's near-linear, unification-based points-to analysis — the
/// baseline of the paper's Section 6 discussion: Shapiro and Horwitz
/// [SH97] found Andersen's inclusion-based analysis substantially more
/// precise but impractically slow; the paper's contribution is that with
/// online cycle elimination Andersen's analysis becomes competitive. This
/// implementation provides the other side of that comparison.
///
/// Model: every abstract location is a *cell* in a union-find forest; each
/// cell class has at most one pointee class (its "points-to" edge) and at
/// most one function signature. Assignments unify the pointees of the two
/// sides; dereferences follow the pointee edge; joins merge recursively.
/// All operations are almost-constant-time, so the whole analysis is
/// effectively linear in program size — at the cost of symmetric,
/// flow-blind merging (storing two pointers in one location equates their
/// targets forever).
///
/// Both analyses walk the program through one location model
/// (LocationModel.h: field-insensitive; self-containing arrays and
/// functions; one heap location per allocation site), so they have the
/// same locations under the same names by construction, their points-to
/// sets are directly comparable, and Andersen ⊆ Steensgaard holds
/// location-for-location. Both end with the same extraction step, which
/// neither analysis's AnalysisSeconds includes.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_ANDERSEN_STEENSGAARD_H
#define POCE_ANDERSEN_STEENSGAARD_H

#include "minic/AST.h"

#include <map>
#include <string>
#include <vector>

namespace poce {
namespace andersen {

/// Result of a Steensgaard run, shaped like AnalysisResult's points-to
/// portion for direct comparison.
struct SteensgaardResult {
  /// Location name -> sorted names of locations it may point to.
  std::map<std::string, std::vector<std::string>> PointsTo;
  /// Abstract locations (named cells).
  uint32_t NumLocations = 0;
  /// Total union-find cells (locations + anonymous).
  uint32_t NumCells = 0;
  /// Class merges performed.
  uint64_t Joins = 0;
  /// Seconds for the walk and unification. Like
  /// AnalysisResult::AnalysisSeconds, this excludes the points-to
  /// extraction that fills PointsTo.
  double AnalysisSeconds = 0;

  std::vector<std::string> pointsTo(const std::string &Name) const {
    auto It = PointsTo.find(Name);
    return It == PointsTo.end() ? std::vector<std::string>() : It->second;
  }
};

/// Runs Steensgaard's analysis over \p Unit.
SteensgaardResult runSteensgaard(const minic::TranslationUnit &Unit);

} // namespace andersen
} // namespace poce

#endif // POCE_ANDERSEN_STEENSGAARD_H
