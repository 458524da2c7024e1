//===- graph/TarjanSCC.h - Strongly connected components --------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative Tarjan SCC computation, the only SCC pass in the project.
/// Used as the ground truth for cycle statistics (Table 1's "variables in
/// SCCs" columns, Figure 11's detection rates), to build the oracle's
/// variable -> witness map, for the periodic baseline's collapses, the
/// retraction's split check, the wave order and the offline preprocessing
/// pass (the last two sweep the components in their reverse topological
/// numbering).
///
/// It runs over GraphRows (graph/GraphRows.h) and returns its components
/// in one flat array (FlatSCCs).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_TARJANSCC_H
#define POCE_GRAPH_TARJANSCC_H

#include "graph/GraphRows.h"

#include <cstdint>
#include <span>
#include <vector>

namespace poce {

/// SCCs with every member in one flat array: component C's members are
/// Members[MemberStart[C] .. MemberStart[C + 1]), in the order Tarjan pops
/// them. Components are numbered in reverse topological order of the
/// condensation (Tarjan's natural order): every edge between two
/// components goes from a higher id to a lower one.
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
  uint32_t componentSize(uint32_t Comp) const {
    return MemberStart[Comp + 1] - MemberStart[Comp];
  }

  /// Number of nodes that live in a non-trivial (size >= 2) component.
  uint32_t numNodesInNontrivialSCCs() const;

  /// Size of the largest component.
  uint32_t maxComponentSize() const;

  /// Number of non-trivial (size >= 2) components.
  uint32_t numNontrivialSCCs() const;
};

/// Computes strongly connected components of \p G (iterative Tarjan; safe
/// for graphs with millions of nodes). Roots are tried in node order and
/// each row in its order, so the numbering is a function of the rows.
FlatSCCs computeSCCs(const GraphRows &G);

} // namespace poce

#endif // POCE_GRAPH_TARJANSCC_H
