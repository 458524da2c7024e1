//===- graph/TarjanSCC.h - Strongly connected components --------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative Tarjan SCC computation. Used as the ground truth for cycle
/// statistics (Table 1's "variables in SCCs" columns, Figure 11's
/// detection rates), to build the oracle's variable -> witness map, and to
/// condense the variable graph for the periodic baseline, the wave order
/// and the offline preprocessing pass (the last two sweep the
/// condensation in its reverse topological numbering).
///
/// The one Tarjan runs over GraphRows (graph/Digraph.h) and returns its
/// components in one flat array (FlatSCCs); the solver's wave-order build
/// calls it directly on the rows it resolves. The Digraph overload is a
/// wrapper that runs it on Digraph::rows() and splits the result into one
/// vector per component.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_TARJANSCC_H
#define POCE_GRAPH_TARJANSCC_H

#include "graph/Digraph.h"

#include <cstdint>
#include <span>
#include <vector>

namespace poce {

/// Result of an SCC computation over a Digraph.
struct SCCResult {
  /// Component id of every node; components are numbered in reverse
  /// topological order of the condensation (Tarjan's natural order).
  std::vector<uint32_t> ComponentOf;

  /// Members of each component.
  std::vector<std::vector<uint32_t>> Components;

  uint32_t numComponents() const {
    return static_cast<uint32_t>(Components.size());
  }

  /// Number of nodes that live in a non-trivial (size >= 2) component.
  uint32_t numNodesInNontrivialSCCs() const;

  /// Size of the largest component.
  uint32_t maxComponentSize() const;

  /// Number of non-trivial (size >= 2) components.
  uint32_t numNontrivialSCCs() const;
};

/// SCCs with every member in one flat array: component C's members are
/// Members[MemberStart[C] .. MemberStart[C + 1]), in the order Tarjan pops
/// them. Components are numbered as in SCCResult.
struct FlatSCCs {
  std::vector<uint32_t> ComponentOf;
  std::vector<uint32_t> Members;
  std::vector<uint32_t> MemberStart{0};

  uint32_t numComponents() const {
    return static_cast<uint32_t>(MemberStart.size() - 1);
  }
  std::span<const uint32_t> component(uint32_t Comp) const {
    return {Members.data() + MemberStart[Comp],
            Members.data() + MemberStart[Comp + 1]};
  }
};

/// Computes strongly connected components of \p G (iterative Tarjan; safe
/// for graphs with millions of nodes). Roots are tried in node order and
/// each row in its order, so the numbering is a function of the rows.
FlatSCCs computeSCCs(const GraphRows &G);

/// computeSCCs over \p G's successor lists, one vector per component.
SCCResult computeSCCs(const Digraph &G);

/// Builds the condensation of \p G given its SCC decomposition: one node
/// per component, deduplicated edges, no self-loops.
Digraph condense(const Digraph &G, const SCCResult &SCCs);

} // namespace poce

#endif // POCE_GRAPH_TARJANSCC_H
