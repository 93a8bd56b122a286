//===- tests/support/LaneWidthTest.cpp - Kernel lane-width differential ---===//
//
// Part of the wiresort project. The reachability kernel's OR-sweep is one
// loop templated on the lane-word count L in {1, 2, 4, 8}; this suite
// pins every width to a per-source BFS over the raw edge list
// (EdgeList.h), which shares no code with the kernel.
// 200 seeded DAG and cyclic graphs are swept at every L, and the
// lane-chunking boundaries around 1/2/8-word rows
// (63/64/65/127/128/129/511/512/513 sources) are exercised explicitly.
//
// tools/run_tests.sh reruns this binary under sanitizers, so keep it
// self-contained.
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

constexpr uint32_t AllWidths[] = {1, 2, 4, 8};

/// Per source, the nodes it reaches according to the edge-list BFS.
std::vector<std::vector<bool>> bfsClosures(const EdgeList &G,
                                           const std::vector<uint32_t> &Sources) {
  std::vector<std::vector<bool>> Out;
  for (uint32_t Src : Sources)
    Out.push_back(G.reachableFrom(Src));
  return Out;
}

/// Per source, the nodes its kernel lane reaches, sweeping \p Sources in
/// laneCount()-sized chunks with \p LaneWords-word rows.
std::vector<std::vector<bool>>
kernelClosures(const CsrGraph &Csr, const std::vector<uint32_t> &Sources,
               uint32_t LaneWords) {
  ReachabilityKernel Kernel(Csr, LaneWords);
  std::vector<std::vector<bool>> Out;
  for (size_t Base = 0; Base < Sources.size(); Base += Kernel.laneCount()) {
    const uint32_t Count = static_cast<uint32_t>(
        std::min<size_t>(Kernel.laneCount(), Sources.size() - Base));
    EXPECT_TRUE(Kernel.sweep(Sources.data() + Base, Count));
    for (uint32_t Lane = 0; Lane != Count; ++Lane) {
      std::vector<bool> Reached(Csr.numNodes());
      for (uint32_t Node = 0; Node != Csr.numNodes(); ++Node)
        Reached[Node] = Kernel.bit(Node, Lane);
      Out.push_back(std::move(Reached));
    }
  }
  return Out;
}

EdgeList randomGraph(std::mt19937 &Rng, bool Dag) {
  std::uniform_int_distribution<uint32_t> NodeCount(1, 120);
  const uint32_t N = NodeCount(Rng);
  EdgeList G(N);
  std::uniform_int_distribution<uint32_t> Node(0, N - 1);
  std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
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

TEST(LaneWidthTest, LaneWordsForTable) {
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(0), 1u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(1), 1u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(64), 1u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(65), 2u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(128), 2u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(129), 4u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(256), 4u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(257), 8u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(512), 8u);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(513),
            ReachabilityKernel::MaxLaneWords);
  EXPECT_EQ(ReachabilityKernel::laneWordsFor(100000),
            ReachabilityKernel::MaxLaneWords);
}

TEST(LaneWidthTest, RandomGraphsMatchBfsAtEveryWidth) {
  // 200 seeded graphs (alternating DAG / cyclic), every node a source,
  // swept at each row width: every lane must equal its BFS closure.
  std::mt19937 Rng(7001);
  for (int Trial = 0; Trial != 200; ++Trial) {
    EdgeList G = randomGraph(Rng, Trial % 2 == 0);
    const CsrGraph Csr = G.build();
    const std::vector<uint32_t> Sources = G.allNodes();
    const std::vector<std::vector<bool>> Oracle = bfsClosures(G, Sources);
    for (uint32_t LaneWords : AllWidths)
      EXPECT_EQ(kernelClosures(Csr, Sources, LaneWords), Oracle)
          << "trial " << Trial << " L=" << LaneWords;
  }
}

TEST(LaneWidthTest, ChunkBoundarySourceCountsAtEveryWidth) {
  // Source counts straddling every row-width boundary: 63/64/65 (one
  // word), 127/128/129 (two words -> four), and 511/512/513 (the
  // 8-word, 512-lane ceiling — 513 forces a second chunked sweep).
  // Layered fan graphs give every source a distinct closure so lane
  // mix-ups cannot cancel.
  for (uint32_t NumSources :
       {63u, 64u, 65u, 127u, 128u, 129u, 511u, 512u, 513u}) {
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
    const CsrGraph Csr = G.build();
    std::vector<uint32_t> Sources(NumSources);
    std::iota(Sources.begin(), Sources.end(), 0);
    const std::vector<std::vector<bool>> Oracle = bfsClosures(G, Sources);
    for (uint32_t LaneWords : AllWidths)
      EXPECT_EQ(kernelClosures(Csr, Sources, LaneWords), Oracle)
          << NumSources << " sources, L=" << LaneWords;
  }
}
