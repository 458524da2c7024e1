//===- graph/Digraph.cpp - Simple directed graph ---------------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/Digraph.h"

#include <cassert>

using namespace poce;

bool Digraph::addEdge(uint32_t From, uint32_t To) {
  assert(From < numNodes() && To < numNodes() && "edge endpoint out of range!");
  uint64_t Key = (static_cast<uint64_t>(From) << 32) | To;
  if (!EdgeSet.insert(Key))
    return false;
  Successors[From].push_back(To);
  ++NumEdges;
  return true;
}

GraphRows Digraph::rows() const {
  GraphRows Rows;
  Rows.RowStart.reserve(numNodes() + 1);
  Rows.Targets.reserve(NumEdges);
  for (const std::vector<uint32_t> &Succs : Successors) {
    Rows.Targets.insert(Rows.Targets.end(), Succs.begin(), Succs.end());
    Rows.endRow();
  }
  return Rows;
}

std::vector<uint32_t> Digraph::reachableFrom(uint32_t Start) const {
  assert(Start < numNodes() && "start node out of range!");
  std::vector<bool> Visited(numNodes(), false);
  std::vector<uint32_t> Stack = {Start};
  std::vector<uint32_t> Result;
  Visited[Start] = true;
  while (!Stack.empty()) {
    uint32_t Node = Stack.back();
    Stack.pop_back();
    Result.push_back(Node);
    for (uint32_t Succ : Successors[Node]) {
      if (Visited[Succ])
        continue;
      Visited[Succ] = true;
      Stack.push_back(Succ);
    }
  }
  return Result;
}

std::vector<uint32_t> Digraph::topologicalOrder() const {
  std::vector<uint32_t> InDegree(numNodes(), 0);
  for (uint32_t Node = 0; Node != numNodes(); ++Node)
    for (uint32_t Succ : Successors[Node])
      ++InDegree[Succ];

  std::vector<uint32_t> Ready;
  for (uint32_t Node = 0; Node != numNodes(); ++Node)
    if (InDegree[Node] == 0)
      Ready.push_back(Node);

  std::vector<uint32_t> Order;
  Order.reserve(numNodes());
  while (!Ready.empty()) {
    uint32_t Node = Ready.back();
    Ready.pop_back();
    Order.push_back(Node);
    for (uint32_t Succ : Successors[Node])
      if (--InDegree[Succ] == 0)
        Ready.push_back(Succ);
  }
  if (Order.size() != numNodes())
    return {}; // Cyclic.
  return Order;
}
