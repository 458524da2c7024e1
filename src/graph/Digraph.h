//===- graph/Digraph.h - Simple directed graph ------------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain adjacency-list directed graph over dense uint32 node ids. Used
/// for SCC analysis of recorded constraint relations, for the random-graph
/// experiments of the analytical model, and for DOT rendering.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_DIGRAPH_H
#define POCE_GRAPH_DIGRAPH_H

#include "support/DenseU64Set.h"

#include <cstdint>
#include <span>
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

/// Adjacency-list digraph. Nodes are 0..numNodes()-1; parallel edges are
/// coalesced.
class Digraph {
public:
  explicit Digraph(uint32_t NumNodes = 0) : Successors(NumNodes) {}

  uint32_t numNodes() const {
    return static_cast<uint32_t>(Successors.size());
  }
  uint64_t numEdges() const { return NumEdges; }

  /// Adds a node and returns its id.
  uint32_t addNode() {
    Successors.emplace_back();
    return numNodes() - 1;
  }

  void growTo(uint32_t NumNodes) {
    if (NumNodes > Successors.size())
      Successors.resize(NumNodes);
  }

  /// Adds edge From -> To if not already present; returns true if added.
  bool addEdge(uint32_t From, uint32_t To);

  bool hasEdge(uint32_t From, uint32_t To) const {
    return From < numNodes() &&
           EdgeSet.contains((static_cast<uint64_t>(From) << 32) | To);
  }

  const std::vector<uint32_t> &successors(uint32_t Node) const {
    return Successors[Node];
  }

  /// The successor lists laid out as CSR rows.
  GraphRows rows() const;

  /// Returns the set of nodes reachable from \p Start (including Start).
  std::vector<uint32_t> reachableFrom(uint32_t Start) const;

  /// Returns a topological order, or an empty vector if the graph is
  /// cyclic.
  std::vector<uint32_t> topologicalOrder() const;

  bool isAcyclic() const {
    return numNodes() == 0 || !topologicalOrder().empty();
  }

private:
  std::vector<std::vector<uint32_t>> Successors;
  DenseU64Set EdgeSet;
  uint64_t NumEdges = 0;
};

} // namespace poce

#endif // POCE_GRAPH_DIGRAPH_H
