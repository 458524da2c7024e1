//===- graph/DotWriter.cpp - Graphviz output -------------------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/DotWriter.h"

#include "graph/TarjanSCC.h"

using namespace poce;

static const char *const SCCColors[] = {"lightblue",  "lightsalmon",
                                        "palegreen",  "plum",
                                        "lightyellow", "lightcyan"};

std::string poce::writeDot(const GraphRows &G, const DotOptions &Options) {
  std::string Out;
  Out += "digraph \"" + Options.GraphName + "\" {\n";
  Out += "  rankdir=LR;\n  node [shape=circle, fontsize=10];\n";

  FlatSCCs SCCs;
  if (Options.ColorSCCs)
    SCCs = computeSCCs(G);

  for (uint32_t Node = 0; Node != G.numNodes(); ++Node) {
    std::string Label =
        Options.Label ? Options.Label(Node) : std::to_string(Node);
    Out += "  n" + std::to_string(Node) + " [label=\"" + Label + "\"";
    if (Options.ColorSCCs) {
      uint32_t Component = SCCs.ComponentOf[Node];
      if (SCCs.componentSize(Component) >= 2) {
        const char *Color =
            SCCColors[Component % (sizeof(SCCColors) / sizeof(SCCColors[0]))];
        Out += ", style=filled, fillcolor=";
        Out += Color;
      }
    }
    Out += "];\n";
  }
  // LastFrom[T] == Node marks T as already printed in Node's row.
  std::vector<uint32_t> LastFrom(G.numNodes(), UINT32_MAX);
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
    for (uint32_t Succ : G.row(Node)) {
      if (LastFrom[Succ] == Node)
        continue;
      LastFrom[Succ] = Node;
      Out += "  n" + std::to_string(Node) + " -> n" + std::to_string(Succ) +
             ";\n";
    }
  Out += "}\n";
  return Out;
}
