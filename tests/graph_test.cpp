//===- tests/graph_test.cpp - Graph library unit tests ---------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/DotWriter.h"
#include "graph/GraphRows.h"
#include "graph/RandomGraph.h"
#include "graph/TarjanSCC.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace poce;

namespace {

using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

/// The distinct edges between different components, as component pairs.
std::set<std::pair<uint32_t, uint32_t>>
condensationEdges(const GraphRows &G, const FlatSCCs &SCCs) {
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
    for (uint32_t Succ : G.row(Node))
      if (SCCs.ComponentOf[Node] != SCCs.ComponentOf[Succ])
        Edges.insert({SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ]});
  return Edges;
}

/// True if every condensation edge goes from a higher component id to a
/// lower one: the numbering is a reverse topological order, so the
/// condensation is acyclic.
bool condensationDescends(const GraphRows &G, const FlatSCCs &SCCs) {
  for (auto [From, To] : condensationEdges(G, SCCs))
    if (From <= To)
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Rows from an edge list
//===----------------------------------------------------------------------===//

TEST(GraphRowsTest, EdgeListKeepsEmissionOrderPerRow) {
  GraphRows G = rowsFromEdges(
      4, EdgeList{{2, 0}, {0, 3}, {2, 1}, {0, 1}, {2, 0}, {0, 3}});
  ASSERT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.Targets.size(), 6u); // Duplicates stay.
  EXPECT_EQ(std::vector<uint32_t>(G.row(0).begin(), G.row(0).end()),
            (std::vector<uint32_t>{3, 1, 3}));
  EXPECT_TRUE(G.row(1).empty());
  EXPECT_EQ(std::vector<uint32_t>(G.row(2).begin(), G.row(2).end()),
            (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_TRUE(G.row(3).empty());
}

TEST(GraphRowsTest, DuplicateEdgesChangeNoComponent) {
  // The same graph once with every edge distinct and once with repeats
  // scattered through the list: the numbering and member order match.
  EdgeList Distinct = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}};
  EdgeList Repeated = {{0, 1}, {1, 2}, {0, 1}, {2, 0}, {2, 3},
                       {1, 2}, {3, 4}, {2, 3}, {4, 3}, {2, 0}};
  FlatSCCs A = computeSCCs(rowsFromEdges(5, Distinct));
  FlatSCCs B = computeSCCs(rowsFromEdges(5, Repeated));
  EXPECT_EQ(A.ComponentOf, B.ComponentOf);
  EXPECT_EQ(A.Members, B.Members);
  EXPECT_EQ(A.MemberStart, B.MemberStart);
}

//===----------------------------------------------------------------------===//
// Tarjan SCC
//===----------------------------------------------------------------------===//

TEST(TarjanTest, SingleCycle) {
  GraphRows G = rowsFromEdges(4, EdgeList{{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  FlatSCCs SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.ComponentOf[0], SCCs.ComponentOf[1]);
  EXPECT_EQ(SCCs.ComponentOf[1], SCCs.ComponentOf[2]);
  EXPECT_NE(SCCs.ComponentOf[0], SCCs.ComponentOf[3]);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 3u);
  EXPECT_EQ(SCCs.maxComponentSize(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 1u);
}

TEST(TarjanTest, DagIsAllSingletons) {
  GraphRows G = rowsFromEdges(5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  FlatSCCs SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 5u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
}

TEST(TarjanTest, SelfLoopIsTrivialComponent) {
  // A self loop forms a component of size 1 (the solver never stores
  // self edges, but the ground-truth SCC analysis must not count them as
  // collapsible).
  GraphRows G = rowsFromEdges(2, EdgeList{{0, 0}, {0, 1}});
  FlatSCCs SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
}

TEST(TarjanTest, TwoSCCsWithBridge) {
  // SCC {0,1,2} -> SCC {3,4} -> 5.
  GraphRows G = rowsFromEdges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}, {4, 5}});
  FlatSCCs SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 2u);
  // Reverse topological numbering: every edge goes from a higher
  // component id to a lower one (or stays inside one component) — the
  // order the offline preprocessing pass and the wave order sweep by.
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
    for (uint32_t Succ : G.row(Node))
      EXPECT_GE(SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ]);
  EXPECT_TRUE(condensationDescends(G, SCCs));
  EXPECT_EQ(condensationEdges(G, SCCs).size(), 2u);
}

// Brute-force SCC: nodes are equivalent iff mutually reachable.
static std::vector<uint32_t> bruteForceSCC(const GraphRows &G) {
  uint32_t N = G.numNodes();
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (uint32_t I = 0; I != N; ++I) {
    std::vector<uint32_t> Stack = {I};
    Reach[I][I] = true;
    while (!Stack.empty()) {
      uint32_t Node = Stack.back();
      Stack.pop_back();
      for (uint32_t Succ : G.row(Node))
        if (!Reach[I][Succ]) {
          Reach[I][Succ] = true;
          Stack.push_back(Succ);
        }
    }
  }
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
  GraphRows G = randomDigraph(N, P, Rng);
  FlatSCCs SCCs = computeSCCs(G);
  std::vector<uint32_t> Reference = bruteForceSCC(G);
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = 0; B != N; ++B)
      EXPECT_EQ(SCCs.ComponentOf[A] == SCCs.ComponentOf[B],
                Reference[A] == Reference[B])
          << "nodes " << A << " and " << B;
  for (uint32_t Node = 0; Node != N; ++Node)
    for (uint32_t Succ : G.row(Node))
      EXPECT_GE(SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ]);
  EXPECT_TRUE(condensationDescends(G, SCCs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TarjanRandomTest,
                         testing::Range<uint64_t>(1, 26));

TEST(TarjanTest, LargeCycleDoesNotOverflowStack) {
  // Iterative Tarjan must handle very long chains/cycles.
  const uint32_t N = 300000;
  GraphRows G;
  for (uint32_t I = 0; I != N; ++I) {
    G.Targets.push_back(I + 1 == N ? 0 : I + 1);
    G.endRow();
  }
  FlatSCCs SCCs = computeSCCs(G);
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
  GraphRows G = randomDigraph(N, P, Rng);
  ASSERT_EQ(G.numNodes(), N);
  double Expected = static_cast<double>(N) * (N - 1) * P;
  EXPECT_GT(G.Targets.size(), Expected * 0.85);
  EXPECT_LT(G.Targets.size(), Expected * 1.15);
}

TEST(RandomGraphTest, ZeroAndOneProbability) {
  PRNG Rng(22);
  EXPECT_EQ(randomDigraph(20, 0.0, Rng).Targets.size(), 0u);
  EXPECT_EQ(randomDigraph(20, 1.0, Rng).Targets.size(), 20u * 19u);
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
  GraphRows G = rowsFromEdges(3, EdgeList{{0, 1}, {1, 2}, {2, 1}});
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

TEST(DotWriterTest, PrintsEachDistinctEdgeOnceInFirstOccurrenceOrder) {
  GraphRows G = rowsFromEdges(3, EdgeList{{0, 2}, {0, 1}, {0, 2}, {2, 0},
                                          {0, 1}, {2, 0}});
  std::string Dot = writeDot(G);
  EXPECT_EQ(Dot, "digraph \"poce\" {\n"
                 "  rankdir=LR;\n  node [shape=circle, fontsize=10];\n"
                 "  n0 [label=\"0\"];\n  n1 [label=\"1\"];\n"
                 "  n2 [label=\"2\"];\n"
                 "  n0 -> n2;\n  n0 -> n1;\n  n2 -> n0;\n}\n");
}
