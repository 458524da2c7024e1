//===- graph/RandomGraph.h - Random graph generation ------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generators for the random graphs of the paper's analytical model
/// (Section 5): G(n, p) digraphs and random initial constraint-system
/// shapes with n variable nodes and m source/sink nodes where every
/// potential edge is present with probability p.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_RANDOMGRAPH_H
#define POCE_GRAPH_RANDOMGRAPH_H

#include "graph/GraphRows.h"
#include "support/PRNG.h"

#include <cstdint>

namespace poce {

/// Generates a G(n, p) digraph: each ordered pair of distinct nodes is an
/// edge with probability \p EdgeProb. Every row lists its targets once, in
/// ascending order.
GraphRows randomDigraph(uint32_t NumNodes, double EdgeProb, PRNG &Rng);

/// Shape of a random inclusion constraint system per the model's
/// assumptions: n variables, m constructed nodes (half sources, half
/// sinks), every legal edge present with probability p.
struct RandomConstraintShape {
  uint32_t NumVars = 0;
  uint32_t NumSources = 0;
  uint32_t NumSinks = 0;

  /// Initial variable-variable constraints X_i <= X_j (i != j).
  std::vector<std::pair<uint32_t, uint32_t>> VarVar;
  /// Initial source-variable constraints c_k <= X_i.
  std::vector<std::pair<uint32_t, uint32_t>> SourceVar;
  /// Initial variable-sink constraints X_i <= s_k.
  std::vector<std::pair<uint32_t, uint32_t>> VarSink;
};

/// Samples a random constraint shape with \p NumVars variables, \p NumCons
/// constructed nodes split evenly into sources and sinks, and edge
/// probability \p EdgeProb (the paper uses p = 1/n for initial graphs and
/// m/n = 2/3).
RandomConstraintShape randomConstraintShape(uint32_t NumVars, uint32_t NumCons,
                                            double EdgeProb, PRNG &Rng);

} // namespace poce

#endif // POCE_GRAPH_RANDOMGRAPH_H
