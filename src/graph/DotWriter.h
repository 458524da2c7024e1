//===- graph/DotWriter.h - Graphviz output ----------------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a graph (such as the solver's live variable graph) to Graphviz
/// DOT text, with optional node labels and SCC cluster coloring.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_DOTWRITER_H
#define POCE_GRAPH_DOTWRITER_H

#include "graph/GraphRows.h"

#include <functional>
#include <string>

namespace poce {

/// Options controlling DOT rendering.
struct DotOptions {
  std::string GraphName = "poce";
  /// Optional node labeler; defaults to the node id.
  std::function<std::string(uint32_t)> Label;
  /// When true, nodes of a non-trivial SCC share a fill color.
  bool ColorSCCs = false;
};

/// Renders \p G as DOT text: every node, then each distinct edge once, in
/// row order and within a row in first-occurrence order.
std::string writeDot(const GraphRows &G, const DotOptions &Options = {});

} // namespace poce

#endif // POCE_GRAPH_DOTWRITER_H
