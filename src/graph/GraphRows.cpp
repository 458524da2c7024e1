//===- graph/GraphRows.cpp - Directed graph as CSR rows -------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphRows.h"

#include <cassert>

using namespace poce;

GraphRows
poce::rowsFromEdges(uint32_t NumNodes,
                    std::span<const std::pair<uint32_t, uint32_t>> Edges) {
  GraphRows G;
  // Count each row's edges one slot ahead, so the prefix sum leaves
  // RowStart[N] at the start of row N.
  G.RowStart.assign(NumNodes + 1, 0);
  for (const auto &[From, To] : Edges) {
    assert(From < NumNodes && To < NumNodes && "edge endpoint out of range!");
    (void)To;
    ++G.RowStart[From + 1];
  }
  for (uint32_t Node = 0; Node != NumNodes; ++Node)
    G.RowStart[Node + 1] += G.RowStart[Node];
  // Fill each row front to back through a moving cursor per row.
  G.Targets.resize(Edges.size());
  std::vector<uint32_t> Next(G.RowStart.begin(), G.RowStart.end() - 1);
  for (const auto &[From, To] : Edges)
    G.Targets[Next[From]++] = To;
  return G;
}
