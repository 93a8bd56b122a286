//===- tests/support/EdgeList.h - Edge lists for graph tests ---*- C++ -*-===//
//
// Part of the wiresort project. Graph tests describe their graphs as a
// plain edge sequence, build the CsrGraph under test from it, and check
// reachability against a breadth-first search over the same raw
// sequence: an oracle that shares no code with CsrGraph or its kernel.
//
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_TESTS_SUPPORT_EDGELIST_H
#define WIRESORT_TESTS_SUPPORT_EDGELIST_H

#include "support/CsrGraph.h"

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace wiresort::test {

/// A directed graph as the sequence of edges it was made from.
struct EdgeList {
  uint32_t NumNodes = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;

  explicit EdgeList(uint32_t NumNodes) : NumNodes(NumNodes) {}

  void addEdge(uint32_t From, uint32_t To) { Edges.emplace_back(From, To); }

  /// The CsrGraph of these edges, emitted in sequence order.
  CsrGraph build() const {
    return CsrGraph::build(NumNodes, [this](auto &&Edge) {
      for (const auto &[From, To] : Edges)
        Edge(From, To);
    });
  }

  /// Successors of \p Node in the order their edges were added.
  std::vector<uint32_t> successors(uint32_t Node) const {
    std::vector<uint32_t> Out;
    for (const auto &[From, To] : Edges)
      if (From == Node)
        Out.push_back(To);
    return Out;
  }

  /// Nodes reachable from \p Start (inclusive): breadth-first over
  /// adjacency lists made here from the raw edge sequence.
  std::vector<bool> reachableFrom(uint32_t Start) const {
    std::vector<std::vector<uint32_t>> Adj(NumNodes);
    for (const auto &[From, To] : Edges)
      Adj[From].push_back(To);
    std::vector<bool> Seen(NumNodes, false);
    std::vector<uint32_t> Queue{Start};
    Seen[Start] = true;
    for (size_t At = 0; At != Queue.size(); ++At)
      for (uint32_t To : Adj[Queue[At]])
        if (!Seen[To]) {
          Seen[To] = true;
          Queue.push_back(To);
        }
    return Seen;
  }

  /// Every node, as a source list.
  std::vector<uint32_t> allNodes() const {
    std::vector<uint32_t> Nodes(NumNodes);
    std::iota(Nodes.begin(), Nodes.end(), 0);
    return Nodes;
  }
};

} // namespace wiresort::test

#endif // WIRESORT_TESTS_SUPPORT_EDGELIST_H
