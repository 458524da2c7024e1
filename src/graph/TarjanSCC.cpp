//===- graph/TarjanSCC.cpp - Strongly connected components ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/TarjanSCC.h"

#include <algorithm>
#include <cassert>

using namespace poce;

uint32_t FlatSCCs::numNodesInNontrivialSCCs() const {
  uint32_t Count = 0;
  for (uint32_t Comp = 0; Comp != numComponents(); ++Comp)
    if (componentSize(Comp) >= 2)
      Count += componentSize(Comp);
  return Count;
}

uint32_t FlatSCCs::maxComponentSize() const {
  uint32_t Max = 0;
  for (uint32_t Comp = 0; Comp != numComponents(); ++Comp)
    Max = std::max(Max, componentSize(Comp));
  return Max;
}

uint32_t FlatSCCs::numNontrivialSCCs() const {
  uint32_t Count = 0;
  for (uint32_t Comp = 0; Comp != numComponents(); ++Comp)
    if (componentSize(Comp) >= 2)
      ++Count;
  return Count;
}

FlatSCCs poce::computeSCCs(const GraphRows &G) {
  const uint32_t N = G.numNodes();
  constexpr uint32_t Unvisited = ~0U;

  FlatSCCs Result;
  Result.ComponentOf.assign(N, Unvisited);
  Result.Members.reserve(N);

  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;

  // Explicit DFS frames: (node, next position in the target array).
  struct Frame {
    uint32_t Node;
    uint32_t SuccPos;
  };
  std::vector<Frame> CallStack;

  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    CallStack.push_back({Root, G.RowStart[Root]});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!CallStack.empty()) {
      Frame &Top = CallStack.back();
      if (Top.SuccPos != G.RowStart[Top.Node + 1]) {
        uint32_t Succ = G.Targets[Top.SuccPos++];
        if (Index[Succ] == Unvisited) {
          Index[Succ] = LowLink[Succ] = NextIndex++;
          Stack.push_back(Succ);
          OnStack[Succ] = true;
          CallStack.push_back({Succ, G.RowStart[Succ]});
        } else if (OnStack[Succ]) {
          LowLink[Top.Node] = std::min(LowLink[Top.Node], Index[Succ]);
        }
        continue;
      }

      // All successors explored: maybe pop a component, then return.
      uint32_t Node = Top.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        uint32_t Parent = CallStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[Node]);
      }
      if (LowLink[Node] == Index[Node]) {
        uint32_t ComponentId = Result.numComponents();
        while (true) {
          uint32_t Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Result.ComponentOf[Member] = ComponentId;
          Result.Members.push_back(Member);
          if (Member == Node)
            break;
        }
        Result.MemberStart.push_back(
            static_cast<uint32_t>(Result.Members.size()));
      }
    }
  }
  return Result;
}
