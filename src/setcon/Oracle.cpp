//===- setcon/Oracle.cpp - Perfect cycle elimination oracle ---------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/Oracle.h"

#include "graph/TarjanSCC.h"
#include "setcon/ConstraintSolver.h"
#include "support/Debug.h"
#include "support/DenseU64Set.h"

#include <algorithm>

#define POCE_DEBUG_TYPE "oracle"

using namespace poce;

Oracle Oracle::fromClasses(UnionFind &Classes) {
  Oracle Result;
  uint32_t N = Classes.size();
  Result.WitnessOf.resize(N);

  // The witness of each class is its smallest creation index, so it exists
  // by the time any other member is requested.
  constexpr uint32_t None = ~0U;
  std::vector<uint32_t> WitnessOfRoot(N, None);
  std::vector<uint32_t> SizeOfRoot(N, 0);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t Root = Classes.find(I);
    if (WitnessOfRoot[Root] == None)
      WitnessOfRoot[Root] = I;
    Result.WitnessOf[I] = WitnessOfRoot[Root];
    ++SizeOfRoot[Root];
  }
  for (uint32_t I = 0; I != N; ++I) {
    if (!Classes.isRepresentative(I) || SizeOfRoot[I] < 2)
      continue;
    ++Result.NontrivialClasses;
    Result.VarsInNontrivial += SizeOfRoot[I];
    Result.MaxClass = std::max(Result.MaxClass, SizeOfRoot[I]);
  }
  return Result;
}

Oracle poce::buildOracle(const GeneratorFn &Generate,
                         ConstructorTable &Constructors,
                         const SolverOptions &BaseOptions,
                         unsigned MaxIterations) {
  UnionFind Classes;
  // Every distinct constraint recorded by any pass, in first-seen order.
  std::vector<std::pair<uint32_t, uint32_t>> AllEdges;
  DenseU64Set SeenEdges;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  Oracle Current;

  for (unsigned Iteration = 0; Iteration != MaxIterations; ++Iteration) {
    // Pass 1 runs IF-Online (it both discovers constraints and keeps the
    // run fast); later passes verify the oracle and catch residual cycles.
    SolverOptions Options = BaseOptions;
    Options.Form = GraphForm::Inductive;
    Options.Elim = Iteration == 0 ? CycleElim::Online : CycleElim::Oracle;
    Options.RecordVarVar = true;

    TermTable Terms(Constructors);
    ConstraintSolver Solver(Terms, Options,
                            Iteration == 0 ? nullptr : &Current);
    Generate(Solver);
    // Derived constraints are recorded during closure; under wave closure
    // the generator's adds are still deferred at this point.
    Solver.ensureClosed();

    Classes.growTo(Solver.numCreations());
    // Each pass records again most of what earlier passes recorded.
    for (const auto &[From, To] : Solver.recordedVarVar())
      if (SeenEdges.insert((static_cast<uint64_t>(From) << 32) | To))
        AllEdges.push_back({From, To});

    // SCCs of (all recorded constraints + known equalities) are the
    // equality classes implied so far.
    uint32_t N = Classes.size();
    Edges.clear();
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t Root = Classes.find(I);
      if (Root != I) {
        Edges.push_back({I, Root});
        Edges.push_back({Root, I});
      }
    }
    Edges.insert(Edges.end(), AllEdges.begin(), AllEdges.end());

    FlatSCCs SCCs = computeSCCs(rowsFromEdges(N, Edges));
    bool Changed = false;
    for (uint32_t Comp = 0; Comp != SCCs.numComponents(); ++Comp) {
      std::span<const uint32_t> Component = SCCs.component(Comp);
      for (size_t I = 1; I < Component.size(); ++I)
        Changed |= Classes.unite(Component[I], Component[0]);
    }
    Current = Oracle::fromClasses(Classes);

    POCE_DEBUG(std::fprintf(
        stderr,
        "[oracle] pass %u: %u creations, %zu constraints, %u classes%s\n",
        Iteration, N, AllEdges.size(), Current.numNontrivialClasses(),
        Changed ? " (changed)" : " (stable)"));

    // A pass after the last change verifies stability.
    if (Iteration > 0 && !Changed)
      break;
  }
  return Current;
}
