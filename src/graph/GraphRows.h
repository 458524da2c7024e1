//===- graph/GraphRows.h - Directed graph as CSR rows -----------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one directed-graph type: dense uint32 node ids with every node's
/// successors in one flat array. Used for the solver's live variable graph
/// (wave order, periodic pass, retraction cone and split check), for SCC
/// analysis of recorded constraint relations, for the random-graph
/// experiments of the analytical model, and for DOT rendering.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_GRAPHROWS_H
#define POCE_GRAPH_GRAPHROWS_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace poce {

/// A graph as CSR rows: node N's successors are
/// Targets[RowStart[N] .. RowStart[N + 1]), in visiting order. Duplicate
/// targets and self loops are allowed and change no component.
struct GraphRows {
  std::vector<uint32_t> RowStart{0};
  std::vector<uint32_t> Targets;

  uint32_t numNodes() const {
    return static_cast<uint32_t>(RowStart.size() - 1);
  }
  std::span<const uint32_t> row(uint32_t Node) const {
    return {Targets.data() + RowStart[Node],
            Targets.data() + RowStart[Node + 1]};
  }
  /// Closes the row being filled (the next node's row starts empty).
  void endRow() { RowStart.push_back(static_cast<uint32_t>(Targets.size())); }
};

/// Lays the edges From -> To out as rows over \p NumNodes nodes. A stable
/// counting sort: each row keeps its edges in the order they appear in
/// \p Edges, duplicates included, so a Tarjan pass over the rows numbers
/// components exactly as one over any deduplicated copy that keeps first
/// occurrences.
GraphRows rowsFromEdges(uint32_t NumNodes,
                        std::span<const std::pair<uint32_t, uint32_t>> Edges);

} // namespace poce

#endif // POCE_GRAPH_GRAPHROWS_H
