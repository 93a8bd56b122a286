//===- support/CsrGraph.cpp - CSR graph + bit-parallel reach --------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/CsrGraph.h"

#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace wiresort;

namespace {

/// How many blocks a sweep processes between deadline polls — the
/// kernel's cancellation granularity (docs/ROBUSTNESS.md).
constexpr uint32_t PollGrain = 4096;

constexpr uint32_t Unvisited = UINT32_MAX;

/// Amortized deadline poll: one decrement per block, and a clock read
/// (plus the kernel.cancel failpoint, which simulates expiry
/// deterministically) every PollGrain blocks. A time check per block
/// would dominate the sweep; a null deadline costs one predicted branch.
class Poller {
public:
  explicit Poller(const support::Deadline *DL) : DL(DL) {}

  bool expired() {
    if (!DL || --Budget != 0)
      return false;
    Budget = PollGrain;
    return DL->expired() || WS_FAILPOINT("kernel.cancel");
  }

private:
  const support::Deadline *DL;
  uint32_t Budget = PollGrain;
};

/// OR position P's L-word lane row into each of its successors' rows.
/// Kernel CSR guarantees every successor position is strictly greater
/// than P, so the source row is never a destination and is loaded into
/// locals once; with L a compile-time constant the inner loop unrolls
/// and the compiler vectorizes it at whatever width the build targets.
template <uint32_t L>
inline void propagateBlock(uint64_t *Mask, const uint32_t *Row,
                           const uint32_t *Col, uint32_t P) {
  const uint32_t Begin = Row[P], End = Row[P + 1];
  if (Begin == End)
    return;
  uint64_t Src[L];
  for (uint32_t I = 0; I != L; ++I)
    Src[I] = Mask[std::size_t(P) * L + I];
  for (uint32_t Idx = Begin; Idx != End; ++Idx) {
    uint64_t *D = Mask + std::size_t(Col[Idx]) * L;
    for (uint32_t I = 0; I != L; ++I)
      D[I] |= Src[I];
  }
}

/// Phase 2 of a sweep: propagate lane rows over the discovered
/// positions in ascending (= topological) position order. The dense
/// pass walks the frontier bitmap word by word, peeling set bits with
/// countr_zero; the sparse pass walks the discovery list, which the
/// caller has sorted. \returns false iff \p Poll fired (the rows are
/// then meaningless; the scratch stays reusable).
template <uint32_t L>
bool propagate(const uint32_t *Row, const uint32_t *Col, uint64_t *Mask,
               const uint64_t *Frontier, uint32_t NumBlocks,
               const std::vector<uint32_t> *SortedDirty, Poller &Poll) {
  if (SortedDirty) {
    for (uint32_t P : *SortedDirty) {
      if (Poll.expired())
        return false;
      propagateBlock<L>(Mask, Row, Col, P);
    }
    return true;
  }
  const uint32_t NumWords = (NumBlocks + 63) / 64;
  for (uint32_t W = 0; W != NumWords; ++W)
    for (uint64_t Bits = Frontier[W]; Bits != 0; Bits &= Bits - 1) {
      if (Poll.expired())
        return false;
      propagateBlock<L>(Mask, Row, Col,
                        W * 64 + static_cast<uint32_t>(std::countr_zero(Bits)));
    }
  return true;
}

} // namespace

void CsrGraph::recordFreeze(uint64_t T0) const {
  static trace::Counter &Freezes = trace::counter("kernel.freezes");
  static trace::Counter &RepairCount =
      trace::counter("kernel.freeze_repairs");
  static trace::Histogram &FreezeUs = trace::histogram("kernel.freeze_us");
  Freezes.add();
  // Descending edges defeated the identity-order proof; every one is a
  // repair the near-sorted pass (or Tarjan fallback) had to absorb.
  if (Repairs != 0)
    RepairCount.add(Repairs);
  if (trace::countersEnabled())
    FreezeUs.record((trace::detail::nowNs() - T0) / 1000);
}

void CsrGraph::order() {
  const uint32_t N = static_cast<uint32_t>(numNodes());
  const uint32_t *Row = Fwd.rowData();
  const uint32_t *Col = Fwd.colData();

  // Synthesized netlists create wires in dependency order, so comb edges
  // usually ascend — node ids then ARE a topological order, the graph is
  // proven acyclic by this one scan, and the kernel layout is the
  // identity: the forward CSR doubles as the kernel CSR at zero cost.
  // Every cycle must contain a descending edge, so an all-ascending
  // graph needs no further proof.
  std::vector<uint32_t> DescTargets;
  for (uint32_t Node = 0; Node != N; ++Node)
    for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx)
      if (Col[Idx] <= Node)
        DescTargets.push_back(Col[Idx]);
  if (DescTargets.empty())
    return;
  Repairs = static_cast<uint32_t>(DescTargets.size());

  // Near-sorted repair: only nodes downstream of a descending edge can
  // be mis-placed by the identity order. That repair set R (the forward
  // closure of the descending-edge targets) is successor-closed, so a
  // valid order is "non-R nodes by ascending id, then R topologically":
  // edges inside non-R ascend (a descending one would put its target in
  // R), edges leaving non-R land in R, and edges inside R never escape.
  // Any cycle lies entirely inside R, so ordering R alone also settles
  // acyclicity — on a netlist with a handful of late-bound output wires
  // this replaces a full Kahn pass with work proportional to |R|.
  bool Cyclic = false;
  std::vector<uint32_t> TopoOrder;
  {
    std::vector<uint8_t> InR(N, 0);
    std::vector<uint32_t> RNodes, Work;
    auto enter = [&](uint32_t Node) {
      if (!InR[Node]) {
        InR[Node] = 1;
        RNodes.push_back(Node);
        Work.push_back(Node);
      }
    };
    for (uint32_t Target : DescTargets)
      enter(Target);
    while (!Work.empty()) {
      const uint32_t Node = Work.back();
      Work.pop_back();
      for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx)
        enter(Col[Idx]);
    }

    // In-R in-degrees: edges from outside R are satisfied by the time R
    // starts, so only R-internal edges (whose sources are all in R,
    // successor-closedness again) gate a node's readiness.
    std::vector<uint32_t> InDegR(N, 0);
    for (uint32_t Node : RNodes)
      for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx)
        ++InDegR[Col[Idx]];
    std::vector<uint32_t> ROrder;
    ROrder.reserve(RNodes.size());
    for (uint32_t Node : RNodes)
      if (InDegR[Node] == 0)
        ROrder.push_back(Node);
    for (size_t At = 0; At != ROrder.size(); ++At) {
      const uint32_t Node = ROrder[At];
      for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx)
        if (--InDegR[Col[Idx]] == 0)
          ROrder.push_back(Col[Idx]);
    }
    Cyclic = ROrder.size() != RNodes.size();

    if (!Cyclic) {
      // A valid topological order, used below as the kernel layout.
      TopoOrder.reserve(N);
      for (uint32_t Node = 0; Node != N; ++Node)
        if (!InR[Node])
          TopoOrder.push_back(Node);
      TopoOrder.insert(TopoOrder.end(), ROrder.begin(), ROrder.end());
    }
  }

  if (!Cyclic) {
    // Blocked kernel layout, acyclic repaired case. The repair order is
    // already a valid total order (every edge position-ascending): non-R
    // nodes keep ascending netlist ids — the order they were created in,
    // so row/col accesses stay as sequential as the identity case — and
    // the repair set is appended topologically. Using it directly keeps
    // the layout pass at one O(N + E) kernel-CSR fill; a longest-path
    // level sort buys nothing the sweep can measure and costs ~5x the
    // rest of the build on register-dominated graphs.
    KernelPos.resize(N);
    for (uint32_t P = 0; P != N; ++P)
      KernelPos[TopoOrder[P]] = P;
    KernelRow.reserve(N + 1);
    KernelRow.push_back(0);
    KernelCol.resize(numEdges());
    for (uint32_t P = 0, At = 0; P != N; ++P) {
      const uint32_t Node = TopoOrder[P];
      for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx)
        KernelCol[At++] = KernelPos[Col[Idx]];
      KernelRow.push_back(At);
    }
    return;
  }

  // Cyclic: condense once with Tarjan. Component ids come out in reverse
  // topological order of the condensation, and the member nodes are
  // grouped for the kernel-layout pass and witness decoding.
  Acyclic = false;
  tarjan();
  CompRow.assign(NumComps + 1, 0);
  for (uint32_t CompId : Comp)
    ++CompRow[CompId + 1];
  for (uint32_t CompId = 0; CompId != NumComps; ++CompId)
    CompRow[CompId + 1] += CompRow[CompId];
  CompNodes.resize(N);
  {
    std::vector<uint32_t> Next(CompRow.begin(), CompRow.end() - 1);
    for (uint32_t Node = 0; Node != N; ++Node)
      CompNodes[Next[Comp[Node]]++] = Node;
  }

  // Blocked kernel layout, cyclic case: position = reversed Tarjan id
  // (Tarjan ids are reverse-topological, so reversing makes every
  // cross-component edge position-ascending). The kernel CSR collapses
  // each SCC to one row — intra-block edges dropped, parallel
  // cross-block edges deduplicated with a stamp — so sweeps never
  // re-walk componentNodes or re-OR a successor per member edge.
  KernelPos.resize(NumComps);
  for (uint32_t CompId = 0; CompId != NumComps; ++CompId)
    KernelPos[CompId] = NumComps - 1 - CompId;
  KernelRow.reserve(NumComps + 1);
  KernelRow.push_back(0);
  std::vector<uint32_t> Stamp(NumComps, UINT32_MAX);
  for (uint32_t P = 0; P != NumComps; ++P) {
    const uint32_t CompId = NumComps - 1 - P;
    for (uint32_t Node : componentNodes(CompId))
      for (uint32_t Idx = Row[Node]; Idx != Row[Node + 1]; ++Idx) {
        const uint32_t Q = KernelPos[Comp[Col[Idx]]];
        if (Q != P && Stamp[Q] != P) {
          Stamp[Q] = P;
          KernelCol.push_back(Q);
        }
      }
    KernelRow.push_back(static_cast<uint32_t>(KernelCol.size()));
  }
}

void CsrGraph::tarjan() {
  const uint32_t N = static_cast<uint32_t>(numNodes());
  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  Comp.assign(N, Unvisited);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;
  NumComps = 0;

  // Iterative Tarjan (safe on million-node graphs): each frame records
  // the node and the position within its successor list so the DFS can
  // resume after returning from a child.
  struct Frame {
    uint32_t Node;
    uint32_t SuccPos;
  };
  std::vector<Frame> CallStack;

  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    CallStack.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      const std::span<const uint32_t> Out = successors(F.Node);
      if (F.SuccPos < Out.size()) {
        uint32_t Child = Out[F.SuccPos++];
        if (Index[Child] == Unvisited) {
          Index[Child] = LowLink[Child] = NextIndex++;
          Stack.push_back(Child);
          OnStack[Child] = true;
          CallStack.push_back({Child, 0});
        } else if (OnStack[Child] && Index[Child] < LowLink[F.Node]) {
          LowLink[F.Node] = Index[Child];
        }
        continue;
      }
      // All successors done: maybe pop an SCC, then return to parent.
      if (LowLink[F.Node] == Index[F.Node]) {
        uint32_t Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Comp[Member] = NumComps;
        } while (Member != F.Node);
        ++NumComps;
      }
      uint32_t Done = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        uint32_t Parent = CallStack.back().Node;
        if (LowLink[Done] < LowLink[Parent])
          LowLink[Parent] = LowLink[Done];
      }
    }
  }
}

std::optional<std::vector<uint32_t>> CsrGraph::findCycle() const {
  if (Acyclic)
    return std::nullopt;
  const uint32_t N = static_cast<uint32_t>(numNodes());

  // Self-loop: the smallest possible cycle.
  for (uint32_t Node = 0; Node != N; ++Node)
    for (uint32_t Succ : successors(Node))
      if (Succ == Node)
        return std::vector<uint32_t>{Node};

  // Otherwise find a node in a nontrivial SCC and walk within the SCC
  // until a node repeats; the walk can never escape an SCC if we only
  // follow intra-SCC edges.
  for (uint32_t Start = 0; Start != N; ++Start) {
    if (componentNodes(Comp[Start]).size() <= 1)
      continue;
    std::vector<uint32_t> Path;
    std::vector<uint32_t> PosInPath(N, Unvisited);
    uint32_t Cur = Start;
    while (true) {
      if (PosInPath[Cur] != Unvisited)
        return std::vector<uint32_t>(Path.begin() + PosInPath[Cur],
                                     Path.end());
      PosInPath[Cur] = static_cast<uint32_t>(Path.size());
      Path.push_back(Cur);
      uint32_t Next = Unvisited;
      for (uint32_t Succ : successors(Cur)) {
        if (Comp[Succ] == Comp[Cur]) {
          Next = Succ;
          break;
        }
      }
      assert(Next != Unvisited && "nontrivial SCC node lacks intra-SCC edge");
      Cur = Next;
    }
  }
  assert(false && "cyclic graph without a cycle");
  return std::nullopt;
}

std::optional<std::vector<uint32_t>> CsrGraph::topoSort() const {
  if (!Acyclic)
    return std::nullopt;
  const uint32_t N = static_cast<uint32_t>(numNodes());
  std::vector<uint32_t> InDegree(N, 0);
  for (uint32_t Idx = 0; Idx != numEdges(); ++Idx)
    ++InDegree[Fwd.colData()[Idx]];

  // Order doubles as the FIFO queue: nodes are emitted in the order
  // they become ready.
  std::vector<uint32_t> Order;
  Order.reserve(N);
  for (uint32_t Node = 0; Node != N; ++Node)
    if (InDegree[Node] == 0)
      Order.push_back(Node);
  for (size_t At = 0; At != Order.size(); ++At)
    for (uint32_t Succ : successors(Order[At]))
      if (--InDegree[Succ] == 0)
        Order.push_back(Succ);
  assert(Order.size() == N && "acyclic graph failed to sort");
  return Order;
}

std::vector<bool> CsrGraph::reachableFrom(uint32_t Start) const {
  std::vector<bool> Seen(numNodes(), false);
  std::vector<uint32_t> Work{Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    uint32_t Node = Work.back();
    Work.pop_back();
    for (uint32_t Succ : successors(Node)) {
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Work.push_back(Succ);
      }
    }
  }
  return Seen;
}

bool CsrGraph::reaches(uint32_t From, uint32_t To) const {
  if (From == To)
    return true;
  std::vector<bool> Seen(numNodes(), false);
  std::vector<uint32_t> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    uint32_t Node = Work.back();
    Work.pop_back();
    for (uint32_t Succ : successors(Node)) {
      if (Succ == To)
        return true;
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Work.push_back(Succ);
      }
    }
  }
  return false;
}

ReachabilityKernel::ReachabilityKernel(const CsrGraph &G, Scratch &S,
                                       uint32_t LaneWords)
    : G(&G), S(&S), L(LaneWords), NumBlocks(G.numComponents()) {
  assert((LaneWords == 1 || LaneWords == 2 || LaneWords == 4 ||
          LaneWords == 8) &&
         "lane rows are 1, 2, 4 or 8 words");
  // assign() reuses capacity: with a per-thread Scratch this is a
  // memset, not a malloc, for every module after the largest.
  S.Mask.assign(std::size_t(NumBlocks) * L, 0);
  S.Frontier.assign((NumBlocks + 63) / 64, 0);
  S.Dirty.clear();
  S.Work.clear();
}

uint32_t ReachabilityKernel::laneWordsFor(size_t SourceCount) {
  const size_t Words = (SourceCount + WordBits - 1) / WordBits;
  if (Words <= 1)
    return 1;
  if (Words <= 2)
    return 2;
  if (Words <= 4)
    return 4;
  return MaxLaneWords;
}

bool ReachabilityKernel::sweep(const uint32_t *Sources, uint32_t Count,
                               const support::Deadline *DL) {
  assert(Count <= laneCount() &&
         "a sweep carries at most laneWords()*64 source lanes");
  static trace::Counter &Sweeps = trace::counter("kernel.sweeps");
  static trace::Counter &WordsSwept =
      trace::counter("kernel.words_swept");
  static trace::Counter &FrontierBlocks =
      trace::counter("kernel.frontier_blocks");
  static trace::Counter &DensePasses =
      trace::counter("kernel.sweeps_dense");
  static trace::Counter &SparsePasses =
      trace::counter("kernel.sweeps_sparse");
  static trace::Histogram &FrontierUs =
      trace::histogram("kernel.frontier_us");
  static trace::Histogram &SweepUs = trace::histogram("kernel.sweep_us");
  Sweeps.add();
  const bool Timed = trace::countersEnabled();

  // Sparse reset of the previous sweep's footprint: between sweeps the
  // lane rows and the frontier bitmap are all-zero except at Dirty
  // positions.
  for (uint32_t P : S->Dirty) {
    uint64_t *Row = S->Mask.data() + std::size_t(P) * L;
    for (uint32_t I = 0; I != L; ++I)
      Row[I] = 0;
    S->Frontier[P / 64] &= ~(uint64_t{1} << (P % 64));
  }
  S->Dirty.clear();
  if (DL && (DL->expired() || WS_FAILPOINT("kernel.cancel")))
    return false;
  if (Count == 0)
    return true;

  // Phase 1 (frontier): seed the lane bits and discover every block
  // reachable from the sources, entirely in kernel position space over
  // the blocked CSR. Dirty doubles as the reset list for the next
  // sweep; the bitmap is the dense pass's iteration order.
  const uint64_t TF0 = Timed ? trace::detail::nowNs() : 0;
  const uint32_t *Row = G->kernelRowData();
  const uint32_t *Col = G->kernelColData();
  uint64_t *Mask = S->Mask.data();
  auto visit = [&](uint32_t P) {
    uint64_t &W = S->Frontier[P / 64];
    const uint64_t Bit = uint64_t{1} << (P % 64);
    if (!(W & Bit)) {
      W |= Bit;
      S->Dirty.push_back(P);
      S->Work.push_back(P);
    }
  };
  for (uint32_t K = 0; K != Count; ++K) {
    const uint32_t P = posOf(Sources[K]);
    Mask[std::size_t(P) * L + K / WordBits] |= uint64_t{1}
                                               << (K % WordBits);
    visit(P);
  }
  Poller FrontierPoll(DL);
  while (!S->Work.empty()) {
    if (FrontierPoll.expired()) {
      S->Work.clear(); // The worklist is reused; leave it empty on abort.
      return false;
    }
    const uint32_t P = S->Work.back();
    S->Work.pop_back();
    for (uint32_t Idx = Row[P]; Idx != Row[P + 1]; ++Idx)
      visit(Col[Idx]);
  }
  FrontierBlocks.add(S->Dirty.size());
  // One L-word lane row per discovered block is what phase 2 settles.
  WordsSwept.add(S->Dirty.size() * L);
  if (Timed) {
    const uint64_t TF1 = trace::detail::nowNs();
    FrontierUs.record((TF1 - TF0) / 1000);
  }

  // Phase 2 (sweep): propagate lane rows over exactly the discovered
  // positions in ascending (= topological) position order. When the
  // sources reach most of the graph, scanning the frontier bitmap beats
  // sorting the discovery list; when they reach a sliver, sorting the
  // sliver wins.
  const uint64_t TS0 = Timed ? trace::detail::nowNs() : 0;
  const std::vector<uint32_t> *SortedDirty = nullptr;
  if (S->Dirty.size() >= NumBlocks / 8) {
    DensePasses.add();
  } else {
    SparsePasses.add();
    std::sort(S->Dirty.begin(), S->Dirty.end());
    SortedDirty = &S->Dirty;
  }
  Poller SweepPoll(DL);
  const uint64_t *Frontier = S->Frontier.data();
  bool Ok;
  switch (L) {
  case 1:
    Ok = propagate<1>(Row, Col, Mask, Frontier, NumBlocks, SortedDirty,
                      SweepPoll);
    break;
  case 2:
    Ok = propagate<2>(Row, Col, Mask, Frontier, NumBlocks, SortedDirty,
                      SweepPoll);
    break;
  case 4:
    Ok = propagate<4>(Row, Col, Mask, Frontier, NumBlocks, SortedDirty,
                      SweepPoll);
    break;
  default:
    Ok = propagate<8>(Row, Col, Mask, Frontier, NumBlocks, SortedDirty,
                      SweepPoll);
    break;
  }
  if (Timed && Ok)
    SweepUs.record((trace::detail::nowNs() - TS0) / 1000);
  return Ok;
}
