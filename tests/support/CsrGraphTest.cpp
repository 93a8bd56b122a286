//===- tests/support/CsrGraphTest.cpp - CSR build + kernel tests ----------===//
//
// Part of the wiresort project. Pins the bit-parallel reachability kernel
// (support/CsrGraph.h) to a per-source BFS over the raw edge list
// (EdgeList.h), which shares no code with the kernel: on every graph,
// for every source, the kernel's lane must equal the BFS set bit for bit. Randomized coverage spans 200+ seeded DAGs and cyclic
// graphs; directed cases cover the empty graph, self-loops, and the
// 63/64/65-source chunk boundaries.
//
//===----------------------------------------------------------------------===//

#include "EdgeList.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

using namespace wiresort;
using wiresort::test::EdgeList;

namespace {

/// Sweeps \p Sources through the kernel in 64-wide chunks and checks each
/// lane against a fresh edge-list BFS from its source.
void expectKernelMatchesBfs(const EdgeList &G,
                            const std::vector<uint32_t> &Sources) {
  const CsrGraph Csr = G.build();
  ReachabilityKernel Kernel(Csr);
  for (size_t Base = 0; Base < Sources.size();
       Base += ReachabilityKernel::WordBits) {
    const uint32_t Count = static_cast<uint32_t>(std::min<size_t>(
        ReachabilityKernel::WordBits, Sources.size() - Base));
    Kernel.sweep(Sources.data() + Base, Count);
    for (uint32_t K = 0; K != Count; ++K) {
      const uint32_t Src = Sources[Base + K];
      const std::vector<bool> Oracle = G.reachableFrom(Src);
      for (uint32_t Node = 0; Node != G.NumNodes; ++Node)
        EXPECT_EQ((Kernel.mask(Node) >> K) & 1, Oracle[Node] ? 1u : 0u)
            << "source " << Src << " node " << Node << " lane " << K;
    }
  }
}

EdgeList randomGraph(std::mt19937 &Rng, bool Dag) {
  std::uniform_int_distribution<uint32_t> NodeCount(1, 70);
  const uint32_t N = NodeCount(Rng);
  EdgeList G(N);
  std::uniform_int_distribution<uint32_t> Node(0, N - 1);
  std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
  // DAG mode orients edges along a random node permutation, not along
  // node ids: acyclic by construction yet full of descending-id edges,
  // so the build cannot take its ascending-ids shortcut and the repair
  // ordering gets exercised with a large repair set.
  std::vector<uint32_t> Pos(N);
  std::iota(Pos.begin(), Pos.end(), 0);
  std::shuffle(Pos.begin(), Pos.end(), Rng);
  for (uint32_t I = 0, E = EdgeCount(Rng); I != E; ++I) {
    uint32_t From = Node(Rng), To = Node(Rng);
    if (Dag) {
      if (Pos[From] == Pos[To])
        continue;
      if (Pos[From] > Pos[To])
        std::swap(From, To);
    }
    G.addEdge(From, To);
  }
  return G;
}

} // namespace

TEST(CsrGraphTest, EmptyGraphBuilds) {
  CsrGraph Csr = EdgeList(0).build();
  EXPECT_EQ(Csr.numNodes(), 0u);
  EXPECT_EQ(Csr.numEdges(), 0u);
  EXPECT_EQ(Csr.numComponents(), 0u);
  // A kernel over the empty graph accepts an empty sweep.
  ReachabilityKernel Kernel(Csr);
  Kernel.sweep(nullptr, 0);
}

TEST(CsrGraphTest, CsrKeepsInsertionOrderAndEdgeCount) {
  EdgeList G(5);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 2); // Cycle.
  G.addEdge(4, 4); // Self-loop.
  G.addEdge(0, 1); // Parallel edge survives the build.
  CsrGraph Csr = G.build();
  EXPECT_EQ(Csr.numNodes(), 5u);
  EXPECT_EQ(Csr.numEdges(), G.Edges.size());

  for (uint32_t Node = 0; Node != 5; ++Node) {
    std::vector<uint32_t> Succs(Csr.successors(Node).begin(),
                                Csr.successors(Node).end());
    EXPECT_EQ(Succs, G.successors(Node)) << "node " << Node;
  }
}

TEST(CsrGraphTest, AcyclicGraphsHaveIdentityCondensation) {
  // Acyclic builds never run Tarjan: every node is its own component —
  // both on the ascending-ids shortcut and on the Kahn path.
  EdgeList Ascending(4);
  Ascending.addEdge(0, 1);
  Ascending.addEdge(1, 2);
  Ascending.addEdge(0, 3);
  EdgeList Shuffled(4); // Descending-id edges force the repair ordering.
  Shuffled.addEdge(3, 1);
  Shuffled.addEdge(1, 0);
  Shuffled.addEdge(3, 2);
  for (const EdgeList *G : {&Ascending, &Shuffled}) {
    CsrGraph Csr = G->build();
    EXPECT_TRUE(Csr.isAcyclic());
    EXPECT_EQ(Csr.numComponents(), 4u);
    for (uint32_t Node = 0; Node != 4; ++Node)
      EXPECT_EQ(Csr.componentOf(Node), Node);
    expectKernelMatchesBfs(*G, G->allNodes());
  }
}

TEST(CsrGraphTest, NearSortedGraphRepairsDescendingTail) {
  // Mostly-ascending netlist shape: a long ascending chain plus a couple
  // of descending edges whose targets have further successors, so the
  // repair set is a small non-trivial region rather than the whole graph.
  EdgeList G(8);
  for (uint32_t Node = 0; Node != 5; ++Node)
    G.addEdge(Node, Node + 1);
  G.addEdge(6, 2); // Descending; 2's downstream chain joins the repair set.
  G.addEdge(7, 0); // Descending onto the chain head.
  G.addEdge(5, 7); // Ascending feed into a descending-edge source.
  CsrGraph Csr = G.build();
  EXPECT_FALSE(Csr.isAcyclic()); // 0..5 -> 7 -> 0 closes a cycle.

  EdgeList H(8);
  for (uint32_t Node = 0; Node != 5; ++Node)
    H.addEdge(Node, Node + 1);
  H.addEdge(6, 2); // Descending but acyclic: 2 never reaches 6.
  H.addEdge(6, 7);
  CsrGraph HCsr = H.build();
  EXPECT_TRUE(HCsr.isAcyclic());
  expectKernelMatchesBfs(H, H.allNodes());
}

TEST(CsrGraphTest, ComponentsGroupTheCycle) {
  EdgeList G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  CsrGraph Csr = G.build();
  EXPECT_FALSE(Csr.isAcyclic());
  EXPECT_EQ(Csr.numComponents(), 3u);
  EXPECT_EQ(Csr.componentOf(1), Csr.componentOf(2));
  EXPECT_NE(Csr.componentOf(0), Csr.componentOf(1));
  // Tarjan ids are reverse-topological: successors get smaller ids.
  EXPECT_LT(Csr.componentOf(3), Csr.componentOf(1));
  EXPECT_LT(Csr.componentOf(1), Csr.componentOf(0));
  EXPECT_EQ(Csr.componentNodes(Csr.componentOf(1)).size(), 2u);
}

TEST(CsrGraphTest, SelfLoopGraphMatchesBfs) {
  EdgeList G(3);
  G.addEdge(0, 0);
  G.addEdge(0, 1);
  expectKernelMatchesBfs(G, G.allNodes());
}

TEST(CsrGraphTest, SingleNodeNoEdgesReachesOnlyItself) {
  EdgeList G(1);
  expectKernelMatchesBfs(G, G.allNodes());
}

TEST(CsrGraphTest, ChunkBoundarySourceCounts) {
  // 63, 64, and 65 sources: one partial word, one exactly full word, and
  // a full word plus a one-lane second sweep. A layered fan graph gives
  // every source a distinct closure so lane mix-ups cannot cancel out.
  for (uint32_t NumSources : {63u, 64u, 65u}) {
    const uint32_t N = NumSources + 40;
    EdgeList G(N);
    std::mt19937 Rng(NumSources);
    std::uniform_int_distribution<uint32_t> Sink(NumSources, N - 1);
    for (uint32_t S = 0; S != NumSources; ++S) {
      G.addEdge(S, Sink(Rng));
      G.addEdge(S, Sink(Rng));
    }
    for (uint32_t Node = NumSources; Node + 1 != N; ++Node)
      if (Rng() % 2)
        G.addEdge(Node, Node + 1);
    std::vector<uint32_t> Sources(NumSources);
    std::iota(Sources.begin(), Sources.end(), 0);
    expectKernelMatchesBfs(G, Sources);
  }
}

TEST(CsrGraphTest, ScratchReuseAcrossSweepsIsClean) {
  // A second sweep over disjoint sources must not inherit lanes from the
  // first: sweep once from a node reaching everything, then from an
  // isolated node, and demand an empty lane everywhere else.
  EdgeList G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  CsrGraph Csr = G.build();
  ReachabilityKernel Kernel(Csr);
  const uint32_t First[] = {0};
  Kernel.sweep(First, 1);
  EXPECT_EQ(Kernel.mask(2), 1u);
  const uint32_t Second[] = {3};
  Kernel.sweep(Second, 1);
  EXPECT_EQ(Kernel.mask(0), 0u);
  EXPECT_EQ(Kernel.mask(2), 0u);
  EXPECT_EQ(Kernel.mask(3), 1u);
}

TEST(CsrGraphTest, RandomDagsMatchPerSourceBfs) {
  std::mt19937 Rng(101);
  for (int Trial = 0; Trial != 100; ++Trial) {
    EdgeList G = randomGraph(Rng, /*Dag=*/true);
    expectKernelMatchesBfs(G, G.allNodes());
  }
}

TEST(CsrGraphTest, RandomCyclicGraphsMatchPerSourceBfs) {
  std::mt19937 Rng(202);
  for (int Trial = 0; Trial != 100; ++Trial) {
    EdgeList G = randomGraph(Rng, /*Dag=*/false);
    expectKernelMatchesBfs(G, G.allNodes());
  }
}

TEST(CsrGraphTest, DenseStronglyConnectedGraphSharesClosure) {
  // One big SCC: every node reaches every node, so after any sweep every
  // node's mask must carry every seeded lane.
  const uint32_t N = 80;
  EdgeList G(N);
  for (uint32_t I = 0; I != N; ++I)
    G.addEdge(I, (I + 1) % N);
  CsrGraph Csr = G.build();
  EXPECT_EQ(Csr.numComponents(), 1u);
  ReachabilityKernel Kernel(Csr);
  std::vector<uint32_t> Sources(ReachabilityKernel::WordBits);
  std::iota(Sources.begin(), Sources.end(), 0);
  Kernel.sweep(Sources.data(), ReachabilityKernel::WordBits);
  for (uint32_t Node = 0; Node != N; ++Node)
    EXPECT_EQ(Kernel.mask(Node), ~uint64_t{0});
}
