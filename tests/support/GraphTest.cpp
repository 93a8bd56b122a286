//===- tests/support/GraphTest.cpp - Graph algorithm tests ----------------===//
//
// Part of the wiresort project. The graph algorithms on CsrGraph:
// cycle detection and witnesses, topological order, SCCs and
// single-source reachability, plus a seeded property test pinning
// findCycle and topoSort to the values the adjacency-list graph this
// project used before CsrGraph::build returned on the same edge
// sequences.
//
//===----------------------------------------------------------------------===//

#include "EdgeList.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace wiresort;
using wiresort::test::EdgeList;

TEST(GraphTest, EmptyGraphIsAcyclic) {
  EdgeList G(0);
  const CsrGraph Csr = G.build();
  EXPECT_TRUE(Csr.isAcyclic());
  EXPECT_FALSE(Csr.findCycle().has_value());
  ASSERT_TRUE(Csr.topoSort().has_value());
  EXPECT_TRUE(Csr.topoSort()->empty());
}

TEST(GraphTest, SingleNodeNoEdges) {
  EdgeList G(1);
  const CsrGraph Csr = G.build();
  EXPECT_TRUE(Csr.isAcyclic());
  EXPECT_EQ(Csr.topoSort()->size(), 1u);
}

TEST(GraphTest, SelfLoopIsACycle) {
  EdgeList G(2);
  G.addEdge(1, 1);
  const CsrGraph Csr = G.build();
  EXPECT_FALSE(Csr.isAcyclic());
  auto Cycle = Csr.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), 1u);
  EXPECT_EQ((*Cycle)[0], 1u);
  EXPECT_FALSE(Csr.topoSort().has_value());
}

TEST(GraphTest, ChainIsAcyclicAndTopoOrdered) {
  EdgeList G(5);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    G.addEdge(I, I + 1);
  const CsrGraph Csr = G.build();
  EXPECT_TRUE(Csr.isAcyclic());
  auto Order = Csr.topoSort();
  ASSERT_TRUE(Order.has_value());
  std::vector<uint32_t> Pos(5);
  for (size_t I = 0; I != Order->size(); ++I)
    Pos[(*Order)[I]] = static_cast<uint32_t>(I);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    EXPECT_LT(Pos[I], Pos[I + 1]);
}

TEST(GraphTest, TwoNodeCycleFound) {
  EdgeList G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  const CsrGraph Csr = G.build();
  EXPECT_FALSE(Csr.isAcyclic());
  auto Cycle = Csr.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  std::set<uint32_t> Nodes(Cycle->begin(), Cycle->end());
  EXPECT_EQ(Nodes, (std::set<uint32_t>{1, 2}));
}

TEST(GraphTest, SccComponentsOfTwoCycles) {
  // 0 -> 1 -> 0 and 2 -> 3 -> 2, with 1 -> 2 bridging.
  EdgeList G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 0);
  G.addEdge(2, 3);
  G.addEdge(3, 2);
  G.addEdge(1, 2);
  const CsrGraph Csr = G.build();
  EXPECT_EQ(Csr.numComponents(), 2u);
  EXPECT_EQ(Csr.componentOf(0), Csr.componentOf(1));
  EXPECT_EQ(Csr.componentOf(2), Csr.componentOf(3));
  EXPECT_NE(Csr.componentOf(0), Csr.componentOf(2));
}

TEST(GraphTest, ReachableFromFollowsEdgesForwardOnly) {
  EdgeList G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(3, 0);
  const CsrGraph Csr = G.build();
  std::vector<bool> R = Csr.reachableFrom(0);
  EXPECT_TRUE(R[0]);
  EXPECT_TRUE(R[1]);
  EXPECT_TRUE(R[2]);
  EXPECT_FALSE(R[3]);
}

TEST(GraphTest, DeepChainDoesNotOverflowStack) {
  // The iterative Tarjan must handle graphs deeper than the C stack.
  const uint32_t N = 500000;
  EdgeList G(N);
  for (uint32_t I = 0; I + 1 < N; ++I)
    G.addEdge(I, I + 1);
  G.addEdge(N - 1, 0); // One giant cycle.
  const CsrGraph Csr = G.build();
  EXPECT_FALSE(Csr.isAcyclic());
  auto Cycle = Csr.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), N);
}

TEST(GraphTest, RandomGraphTopoSortAgreesWithHasCycle) {
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::uniform_int_distribution<uint32_t> NodeCount(1, 40);
    uint32_t N = NodeCount(Rng);
    EdgeList G(N);
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
    uint32_t E = EdgeCount(Rng);
    for (uint32_t I = 0; I != E; ++I)
      G.addEdge(Node(Rng), Node(Rng));
    const CsrGraph Csr = G.build();
    EXPECT_EQ(Csr.isAcyclic(), Csr.topoSort().has_value());
    EXPECT_EQ(Csr.isAcyclic(), !Csr.findCycle().has_value());
  }
}

TEST(GraphTest, FindCycleReturnsRealCycle) {
  std::mt19937 Rng(11);
  for (int Trial = 0; Trial != 30; ++Trial) {
    uint32_t N = 20;
    EdgeList G(N);
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    for (uint32_t I = 0; I != 40; ++I)
      G.addEdge(Node(Rng), Node(Rng));
    const CsrGraph Csr = G.build();
    auto Cycle = Csr.findCycle();
    if (!Cycle)
      continue;
    // Verify each consecutive pair is an edge, wrapping around.
    for (size_t I = 0; I != Cycle->size(); ++I) {
      uint32_t From = (*Cycle)[I];
      uint32_t To = (*Cycle)[(I + 1) % Cycle->size()];
      const auto Succ = Csr.successors(From);
      EXPECT_NE(std::find(Succ.begin(), Succ.end(), To), Succ.end())
          << "missing edge " << From << " -> " << To;
    }
  }
}

namespace {

/// A small deterministic generator (splitmix64), so the expected values
/// below do not depend on a standard library's distributions.
struct SplitMix {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

/// Trial \p Trial's edge sequence: up to 8 nodes for the first 24
/// trials, up to 40 after. Two trials in three keep edges ascending and
/// loop-free (DAGs, mostly on the ascending-id path); every third may
/// hold any edge, self-loops included.
EdgeList trialGraph(uint32_t Trial) {
  SplitMix R{Trial};
  EdgeList G(1 + R.below(Trial < 24 ? 8 : 40));
  const uint32_t E = R.below(2 * G.NumNodes + 1);
  for (uint32_t I = 0; I != E; ++I) {
    uint32_t A = R.below(G.NumNodes), B = R.below(G.NumNodes);
    if (Trial % 3 != 0 && A > B)
      std::swap(A, B);
    if (Trial % 3 != 0 && A == B)
      continue;
    G.addEdge(A, B);
  }
  return G;
}

/// FNV-1a over 32-bit words.
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void add(uint32_t V) {
    for (int I = 0; I != 4; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
};

struct Expected {
  uint32_t Trial;
  std::vector<uint32_t> Cycle; // Empty: acyclic.
  std::vector<uint32_t> Topo;  // Empty: cyclic.
};

} // namespace

TEST(GraphTest, SeededEdgeSequencesKeepSuccessorOrderAndWitnesses) {
  // Values recorded from the adjacency-list graph's findCycle and
  // topoSort on the same edge sequences: every cycle witness (and so
  // every WS101/WS401 hop list) and every module order must survive the
  // move to CsrGraph::build unchanged.
  const std::vector<Expected> Recorded = {
      {0, {4}, {}},
      {1, {}, {0, 1}},
      {2, {}, {0, 4, 1, 5, 2, 3, 6}},
      {3, {}, {0, 2, 3, 1, 4, 5}},
      {4, {}, {0, 1, 2}},
      {5, {}, {0, 1, 2}},
      {6, {0}, {}},
      {7, {}, {0, 1, 5, 7, 6, 2, 3, 4}},
      {8, {}, {0, 1, 2, 4, 5, 3, 6}},
      {9, {}, {1, 2, 3, 4, 0}},
      {10, {}, {0, 1, 2}},
      {11, {}, {0, 1, 2, 3, 5, 4}},
      {12, {0}, {}},
      {13, {}, {0, 1, 2, 3, 4, 5, 6, 7}},
      {14, {}, {0, 1, 4, 3, 2, 5, 6}},
      {15, {5}, {}},
      {16, {}, {0, 1, 2, 3, 7, 4, 5, 6}},
      {17, {}, {0, 1, 2, 3}},
      {18, {}, {0, 1, 2}},
      {19, {}, {0, 1, 2, 3, 4}},
      {20, {}, {0, 3, 4, 1, 2}},
      {21, {1, 7}, {}},
      {22, {}, {0, 1, 2}},
      {23, {}, {0, 1, 2, 4, 5, 6, 3}},
  };
  for (const Expected &X : Recorded) {
    const EdgeList G = trialGraph(X.Trial);
    const CsrGraph Csr = G.build();
    EXPECT_EQ(Csr.findCycle().value_or(std::vector<uint32_t>{}), X.Cycle)
        << "trial " << X.Trial;
    EXPECT_EQ(Csr.topoSort().value_or(std::vector<uint32_t>{}), X.Topo)
        << "trial " << X.Trial;
  }

  // 500 trials: successors in insertion order, and a digest of every
  // witness and order against the recorded one.
  Fnv Digest;
  for (uint32_t Trial = 0; Trial != 500; ++Trial) {
    const EdgeList G = trialGraph(Trial);
    const CsrGraph Csr = G.build();
    ASSERT_EQ(Csr.numEdges(), G.Edges.size());
    for (uint32_t Node = 0; Node != G.NumNodes; ++Node) {
      const auto Succs = Csr.successors(Node);
      EXPECT_EQ(std::vector<uint32_t>(Succs.begin(), Succs.end()),
                G.successors(Node))
          << "trial " << Trial << " node " << Node;
    }
    const auto Cycle = Csr.findCycle();
    const auto Topo = Csr.topoSort();
    Digest.add(G.NumNodes);
    Digest.add(Cycle ? 1 : 0);
    if (Cycle)
      for (uint32_t V : *Cycle)
        Digest.add(V);
    Digest.add(Topo ? 1 : 0);
    if (Topo)
      for (uint32_t V : *Topo)
        Digest.add(V);
  }
  EXPECT_EQ(Digest.H, 0xdc9a89120091bc01ull);
}
