//===- graph/RandomGraph.cpp - Random graph generation --------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/RandomGraph.h"

#include <cmath>

using namespace poce;

// Iterates the positions of set trials in a Bernoulli(p) sequence of
// length Total using geometric skips, calling F(Index) for each success.
// O(expected successes) instead of O(Total).
template <typename Fn>
static void forEachBernoulliSuccess(uint64_t Total, double P, PRNG &Rng,
                                    Fn F) {
  if (P <= 0.0)
    return;
  if (P >= 1.0) {
    for (uint64_t I = 0; I != Total; ++I)
      F(I);
    return;
  }
  double LogQ = std::log1p(-P);
  uint64_t Index = 0;
  while (true) {
    double U = Rng.nextDouble();
    // Skip a geometric number of failures.
    uint64_t Skip = static_cast<uint64_t>(std::log1p(-U) / LogQ);
    if (Total - Index <= Skip)
      return;
    Index += Skip;
    F(Index);
    ++Index;
    if (Index >= Total)
      return;
  }
}

GraphRows poce::randomDigraph(uint32_t NumNodes, double EdgeProb,
                              PRNG &Rng) {
  // Successes arrive in ascending flat index, i.e. row by row, so each
  // edge is appended to the row being filled.
  GraphRows G;
  uint64_t Total = static_cast<uint64_t>(NumNodes) * NumNodes;
  forEachBernoulliSuccess(Total, EdgeProb, Rng, [&](uint64_t Flat) {
    uint32_t From = static_cast<uint32_t>(Flat / NumNodes);
    uint32_t To = static_cast<uint32_t>(Flat % NumNodes);
    while (G.numNodes() != From)
      G.endRow();
    if (From != To)
      G.Targets.push_back(To);
  });
  while (G.numNodes() != NumNodes)
    G.endRow();
  return G;
}

RandomConstraintShape poce::randomConstraintShape(uint32_t NumVars,
                                                  uint32_t NumCons,
                                                  double EdgeProb, PRNG &Rng) {
  RandomConstraintShape Shape;
  Shape.NumVars = NumVars;
  Shape.NumSources = NumCons / 2;
  Shape.NumSinks = NumCons - Shape.NumSources;

  uint64_t VarPairs = static_cast<uint64_t>(NumVars) * NumVars;
  forEachBernoulliSuccess(VarPairs, EdgeProb, Rng, [&](uint64_t Flat) {
    uint32_t From = static_cast<uint32_t>(Flat / NumVars);
    uint32_t To = static_cast<uint32_t>(Flat % NumVars);
    if (From != To)
      Shape.VarVar.push_back({From, To});
  });

  uint64_t SourcePairs = static_cast<uint64_t>(Shape.NumSources) * NumVars;
  forEachBernoulliSuccess(SourcePairs, EdgeProb, Rng, [&](uint64_t Flat) {
    uint32_t Source = static_cast<uint32_t>(Flat / NumVars);
    uint32_t Var = static_cast<uint32_t>(Flat % NumVars);
    Shape.SourceVar.push_back({Source, Var});
  });

  uint64_t SinkPairs = static_cast<uint64_t>(NumVars) * Shape.NumSinks;
  forEachBernoulliSuccess(SinkPairs, EdgeProb, Rng, [&](uint64_t Flat) {
    uint32_t Var = static_cast<uint32_t>(Flat / Shape.NumSinks);
    uint32_t Sink = static_cast<uint32_t>(Flat % Shape.NumSinks);
    Shape.VarSink.push_back({Var, Sink});
  });

  return Shape;
}
