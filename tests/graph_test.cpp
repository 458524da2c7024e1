//===- tests/graph_test.cpp - Graph library unit tests ---------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/Digraph.h"
#include "graph/DotWriter.h"
#include "graph/RandomGraph.h"
#include "graph/TarjanSCC.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace poce;

//===----------------------------------------------------------------------===//
// Digraph
//===----------------------------------------------------------------------===//

TEST(DigraphTest, AddAndDedupeEdges) {
  Digraph G(3);
  EXPECT_TRUE(G.addEdge(0, 1));
  EXPECT_FALSE(G.addEdge(0, 1));
  EXPECT_TRUE(G.addEdge(1, 2));
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_FALSE(G.hasEdge(1, 0));
}

TEST(DigraphTest, ReachableFrom) {
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(3, 4);
  auto Reach = G.reachableFrom(0);
  std::set<uint32_t> Set(Reach.begin(), Reach.end());
  EXPECT_EQ(Set, (std::set<uint32_t>{0, 1, 2}));
}

TEST(DigraphTest, TopologicalOrderOnDag) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);
  auto Order = G.topologicalOrder();
  ASSERT_EQ(Order.size(), 4u);
  std::vector<uint32_t> Position(4);
  for (uint32_t I = 0; I != 4; ++I)
    Position[Order[I]] = I;
  EXPECT_LT(Position[0], Position[1]);
  EXPECT_LT(Position[1], Position[3]);
  EXPECT_LT(Position[2], Position[3]);
  EXPECT_TRUE(G.isAcyclic());
}

TEST(DigraphTest, TopologicalOrderDetectsCycle) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  EXPECT_TRUE(G.topologicalOrder().empty());
  EXPECT_FALSE(G.isAcyclic());
}

TEST(DigraphTest, GrowTo) {
  Digraph G;
  G.growTo(10);
  EXPECT_EQ(G.numNodes(), 10u);
  EXPECT_EQ(G.addNode(), 10u);
}

//===----------------------------------------------------------------------===//
// Tarjan SCC
//===----------------------------------------------------------------------===//

TEST(TarjanTest, SingleCycle) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.addEdge(2, 3);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.ComponentOf[0], SCCs.ComponentOf[1]);
  EXPECT_EQ(SCCs.ComponentOf[1], SCCs.ComponentOf[2]);
  EXPECT_NE(SCCs.ComponentOf[0], SCCs.ComponentOf[3]);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 3u);
  EXPECT_EQ(SCCs.maxComponentSize(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 1u);
}

TEST(TarjanTest, DagIsAllSingletons) {
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 5u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
}

TEST(TarjanTest, SelfLoopIsTrivialComponent) {
  // A self loop forms a component of size 1 (the solver never stores
  // self edges, but the ground-truth SCC analysis must not count them as
  // collapsible).
  Digraph G(2);
  G.addEdge(0, 0);
  G.addEdge(0, 1);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
}

TEST(TarjanTest, TwoSCCsWithBridge) {
  Digraph G(6);
  // SCC {0,1,2} -> SCC {3,4} -> 5.
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  G.addEdge(4, 3);
  G.addEdge(4, 5);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 2u);
  // Reverse topological numbering: every edge goes from a higher
  // component id to a lower one (or stays inside one component) — the
  // order the offline preprocessing pass and the wave order sweep by.
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
    for (uint32_t Succ : G.successors(Node))
      EXPECT_GE(SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ]);
  Digraph Condensed = condense(G, SCCs);
  EXPECT_TRUE(Condensed.isAcyclic());
  EXPECT_EQ(Condensed.numNodes(), 3u);
  EXPECT_EQ(Condensed.numEdges(), 2u);
}

// Brute-force SCC: nodes are equivalent iff mutually reachable.
static std::vector<uint32_t> bruteForceSCC(const Digraph &G) {
  uint32_t N = G.numNodes();
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t Node : G.reachableFrom(I))
      Reach[I][Node] = true;
  std::vector<uint32_t> Label(N, ~0U);
  uint32_t Next = 0;
  for (uint32_t I = 0; I != N; ++I) {
    if (Label[I] != ~0U)
      continue;
    Label[I] = Next;
    for (uint32_t J = I + 1; J != N; ++J)
      if (Reach[I][J] && Reach[J][I])
        Label[J] = Next;
    ++Next;
  }
  return Label;
}

class TarjanRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TarjanRandomTest, AgreesWithBruteForce) {
  PRNG Rng(GetParam());
  uint32_t N = 5 + static_cast<uint32_t>(Rng.nextBelow(40));
  double P = 0.02 + Rng.nextDouble() * 0.2;
  Digraph G = randomDigraph(N, P, Rng);
  SCCResult SCCs = computeSCCs(G);
  std::vector<uint32_t> Reference = bruteForceSCC(G);
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = 0; B != N; ++B)
      EXPECT_EQ(SCCs.ComponentOf[A] == SCCs.ComponentOf[B],
                Reference[A] == Reference[B])
          << "nodes " << A << " and " << B;
  for (uint32_t Node = 0; Node != N; ++Node)
    for (uint32_t Succ : G.successors(Node))
      EXPECT_GE(SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ]);
  EXPECT_TRUE(condense(G, SCCs).isAcyclic());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TarjanRandomTest,
                         testing::Range<uint64_t>(1, 26));

TEST(TarjanTest, LargeCycleDoesNotOverflowStack) {
  // Iterative Tarjan must handle very long chains/cycles.
  const uint32_t N = 300000;
  Digraph G(N);
  for (uint32_t I = 0; I + 1 != N; ++I)
    G.addEdge(I, I + 1);
  G.addEdge(N - 1, 0);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 1u);
  EXPECT_EQ(SCCs.maxComponentSize(), N);
}

//===----------------------------------------------------------------------===//
// Random graphs
//===----------------------------------------------------------------------===//

TEST(RandomGraphTest, EdgeCountNearExpectation) {
  PRNG Rng(21);
  const uint32_t N = 300;
  const double P = 0.05;
  Digraph G = randomDigraph(N, P, Rng);
  double Expected = static_cast<double>(N) * (N - 1) * P;
  EXPECT_GT(G.numEdges(), Expected * 0.85);
  EXPECT_LT(G.numEdges(), Expected * 1.15);
}

TEST(RandomGraphTest, ZeroAndOneProbability) {
  PRNG Rng(22);
  EXPECT_EQ(randomDigraph(20, 0.0, Rng).numEdges(), 0u);
  EXPECT_EQ(randomDigraph(20, 1.0, Rng).numEdges(), 20u * 19u);
}

TEST(RandomGraphTest, ConstraintShapeCounts) {
  PRNG Rng(23);
  RandomConstraintShape Shape = randomConstraintShape(100, 60, 0.05, Rng);
  EXPECT_EQ(Shape.NumVars, 100u);
  EXPECT_EQ(Shape.NumSources + Shape.NumSinks, 60u);
  double ExpectedVarVar = 100.0 * 100.0 * 0.05;
  EXPECT_GT(Shape.VarVar.size(), ExpectedVarVar * 0.7);
  EXPECT_LT(Shape.VarVar.size(), ExpectedVarVar * 1.3);
  for (auto [From, To] : Shape.VarVar) {
    EXPECT_LT(From, 100u);
    EXPECT_LT(To, 100u);
    EXPECT_NE(From, To);
  }
  for (auto [Source, Var] : Shape.SourceVar) {
    EXPECT_LT(Source, Shape.NumSources);
    EXPECT_LT(Var, 100u);
  }
  for (auto [Var, Sink] : Shape.VarSink) {
    EXPECT_LT(Var, 100u);
    EXPECT_LT(Sink, Shape.NumSinks);
  }
}

TEST(RandomGraphTest, DeterministicForSeed) {
  PRNG A(5), B(5);
  RandomConstraintShape SA = randomConstraintShape(50, 30, 0.1, A);
  RandomConstraintShape SB = randomConstraintShape(50, 30, 0.1, B);
  EXPECT_EQ(SA.VarVar, SB.VarVar);
  EXPECT_EQ(SA.SourceVar, SB.SourceVar);
  EXPECT_EQ(SA.VarSink, SB.VarSink);
}

//===----------------------------------------------------------------------===//
// DOT output
//===----------------------------------------------------------------------===//

TEST(DotWriterTest, ContainsNodesAndEdges) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  DotOptions Options;
  Options.GraphName = "test";
  Options.ColorSCCs = true;
  Options.Label = [](uint32_t Node) { return "N" + std::to_string(Node); };
  std::string Dot = writeDot(G, Options);
  EXPECT_NE(Dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(Dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"N2\""), std::string::npos);
  // Nodes 1 and 2 form an SCC and should be colored.
  EXPECT_NE(Dot.find("fillcolor"), std::string::npos);
}
