//===- bench/baseline_steensgaard.cpp - The Section 6 comparison -----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's framing result (Section 6): Shapiro & Horwitz [SH97] found
/// Andersen's analysis far more precise than Steensgaard's
/// unification-based analysis but impractically slow — and this paper's
/// claim is that online cycle elimination closes the performance gap.
/// This bench runs both analyses over the suite and reports time and
/// precision (total and average points-to set sizes over named locations,
/// lower = more precise). Both analyses walk one location model, and both
/// times stop before the points-to extraction they share.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "andersen/Steensgaard.h"

using namespace poce;
using namespace poce::bench;

namespace {

struct Precision {
  uint64_t TotalTargets = 0;
  uint64_t NonEmpty = 0;

  double average() const {
    return NonEmpty ? double(TotalTargets) / double(NonEmpty) : 0.0;
  }
};

Precision measure(const std::map<std::string, std::vector<std::string>> &P) {
  Precision Result;
  for (const auto &[Name, Targets] : P) {
    if (Targets.empty())
      continue;
    ++Result.NonEmpty;
    Result.TotalTargets += Targets.size();
  }
  return Result;
}

} // namespace

int main() {
  BenchEnv Env = BenchEnv::fromEnv();
  std::printf("=== Baseline: Andersen (IF-Online) vs Steensgaard ===\n");
  Env.print();

  TextTable Table({"Benchmark", "AST", "And-s", "St-s", "St/And-speed",
                   "And-avgPts", "St-avgPts", "precision-x"});
  double SumPrecision = 0, SumSpeed = 0;
  unsigned Count = 0;
  for (auto &Entry : prepareSuite(Env)) {
    // Andersen, IF-Online, including points-to extraction so precision is
    // measured on the same representation.
    double AndersenBest = 0;
    andersen::AnalysisResult Andersen;
    for (unsigned Repeat = 0; Repeat != Env.Repeats; ++Repeat) {
      Andersen = andersen::runAnalysis(
          Entry->Program->Unit, Entry->Constructors,
          paperConfig(GraphForm::Inductive, CycleElim::Online), nullptr,
          /*ExtractPointsTo=*/true);
      if (Repeat == 0 || Andersen.AnalysisSeconds < AndersenBest)
        AndersenBest = Andersen.AnalysisSeconds;
    }

    double SteensBest = 0;
    andersen::SteensgaardResult Steens;
    for (unsigned Repeat = 0; Repeat != Env.Repeats; ++Repeat) {
      Steens = andersen::runSteensgaard(Entry->Program->Unit);
      if (Repeat == 0 || Steens.AnalysisSeconds < SteensBest)
        SteensBest = Steens.AnalysisSeconds;
    }

    Precision AndersenPrecision = measure(Andersen.PointsTo);
    Precision SteensPrecision = measure(Steens.PointsTo);
    double PrecisionRatio =
        AndersenPrecision.average()
            ? SteensPrecision.average() / AndersenPrecision.average()
            : 0.0;
    double SpeedRatio = SteensBest > 0 ? AndersenBest / SteensBest : 0.0;
    SumPrecision += PrecisionRatio;
    SumSpeed += SpeedRatio;
    ++Count;

    Table.addRow({Entry->Program->Spec.Name,
                  formatGrouped(Entry->Program->AstNodes),
                  formatDouble(AndersenBest, 3), formatDouble(SteensBest, 3),
                  formatDouble(SpeedRatio, 1),
                  formatDouble(AndersenPrecision.average(), 2),
                  formatDouble(SteensPrecision.average(), 2),
                  formatDouble(PrecisionRatio, 2)});
  }
  Table.print();
  if (Count)
    std::printf("\naverages: Steensgaard points-to sets %.1fx larger "
                "(less precise); Andersen with online elimination runs "
                "%.1fx Steensgaard's time.\n",
                SumPrecision / Count, SumSpeed / Count);
  std::printf("paper context: [SH97] found Andersen impractical; online "
              "cycle elimination makes it competitive with unification.\n");
  return 0;
}
