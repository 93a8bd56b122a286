//===- tests/property/ThreadDifferentialTest.cpp - Threads vs serial ------===//
//
// Part of the wiresort project. The SummaryEngine determinism contract
// (analysis/SummaryEngine.h, docs/ENGINE.md), enforced over 120 seeded
// mega-scale designs — loop-free and loop-injected, all three
// topologies:
//
//  * Stage 1 — SummaryEngine::analyze at every thread count in
//    {1, 2, 4, hardware_concurrency()} produces byte-identical verdict
//    NDJSON (WS101 witness hops included), structurallyEqual summary
//    maps, the same inferred/cache-hit counters, byte-identical
//    saveCache sidecars and byte-identical binary summary sidecars to a
//    separate serial engine.
//  * Warm cache — a second analyze on the same engine serves every
//    module from cache and must not move a byte.
//  * Stage 3 — checkCircuitPairwise and the SCC production checker
//    agree with each other and with whether a loop was injected.
//
// A serial run and a pool run share nothing but the per-module inference,
// so byte equality here is evidence that the module DAG — not
// scheduling luck — determines the output.
//
//===----------------------------------------------------------------------===//

#include "ThreadCounts.h"

#include "analysis/SummaryEngine.h"
#include "analysis/SummaryIO.h"
#include "analysis/WellConnected.h"
#include "gen/MegaScale.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// Seed -> mega-scale parameters: rotates topology, CI-sized grids, a
/// quarter of the trials loop-injected (their WS101 diags must come out
/// of every pool byte-for-byte).
MegaScaleParams paramsFor(uint32_t Seed) {
  MegaScaleParams P;
  P.Topo = Seed % 3 == 0   ? MegaScaleParams::Topology::TileGrid
           : Seed % 3 == 1 ? MegaScaleParams::Topology::NocMesh
                           : MegaScaleParams::Topology::FifoFabric;
  P.GridX = 1 + Seed % 3;
  P.GridY = 1 + (Seed / 3) % 2;
  P.TilesPerCluster = 1 + Seed % 4;
  P.PayloadPerTile = 2 + Seed % 5;
  P.TileVariants = 1 + Seed % 3;
  P.ClusterVariants = 1 + Seed % 2;
  P.Width = static_cast<uint16_t>(4 + 4 * (Seed % 3));
  P.Seed = 0x5eed0000ull + Seed;
  P.InjectLoop = Seed % 4 == 3;
  P.LoopRingLength = 2 + Seed % 4;
  return P;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void expectSameSummaries(const Summaries &Ref, const Summaries &Got,
                         const std::string &Trial) {
  ASSERT_EQ(Ref.size(), Got.size()) << Trial;
  for (const auto &[Id, S] : Ref) {
    auto It = Got.find(Id);
    ASSERT_TRUE(It != Got.end()) << Trial << " module " << Id;
    EXPECT_TRUE(structurallyEqual(S, It->second))
        << Trial << " module " << Id;
  }
}

class ThreadTrial : public ::testing::TestWithParam<uint32_t> {};
class CircuitTrial : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(ThreadTrial, EveryThreadCountMatchesSerialByteForByte) {
  const uint32_t Seed = GetParam();
  const MegaScaleParams P = paramsFor(Seed);

  Design D;
  buildMegaScale(D, P);

  // Serial reference: the SummaryEngine (cache on, one thread), its
  // verdict bytes, and its sidecar bytes.
  EngineConfig RefCfg;
  RefCfg.Threads = 1;
  SummaryEngine Ref(RefCfg);
  Summaries RefOut;
  support::Status RefVerdict = Ref.analyze(D, RefOut);
  const std::string RefJson = support::renderJson(RefVerdict);
  EXPECT_EQ(RefVerdict.hasError(), P.InjectLoop)
      << "seed " << Seed << "\n"
      << RefVerdict.describe();

  const std::string RefCachePath = ::testing::TempDir() +
                                   "/thread_diff_ref_" +
                                   std::to_string(Seed) + ".wscache";
  std::remove(RefCachePath.c_str());
  ASSERT_TRUE(Ref.saveCache(RefCachePath, D, RefOut).empty())
      << "seed " << Seed;
  const std::string RefCacheBytes = slurp(RefCachePath);
  ASSERT_FALSE(RefCacheBytes.empty()) << "seed " << Seed;

  // Binary-roundtrip differential: the wire-format sidecar of the
  // serial summaries decodes back to the same summaries, and its bytes
  // are the reference every pool run must reproduce below.
  const std::string RefBinary = writeSummariesBinary(D, RefOut);
  {
    auto Decoded = readSummariesBinary(RefBinary, D);
    ASSERT_TRUE(Decoded.hasValue())
        << "seed " << Seed << "\n"
        << Decoded.describe();
    expectSameSummaries(RefOut, *Decoded,
                        "seed " + std::to_string(Seed) + " binary");
    EXPECT_EQ(writeSummaries(D, *Decoded), writeSummaries(D, RefOut))
        << "seed " << Seed;
  }

  const std::string CachePath = ::testing::TempDir() + "/thread_diff_" +
                                std::to_string(Seed) + ".wscache";
  for (unsigned Threads : differentialThreadCounts()) {
    const std::string Trial = "seed " + std::to_string(Seed) + " threads " +
                              std::to_string(Threads);
    EngineConfig Cfg;
    Cfg.Threads = Threads;
    SummaryEngine Engine(Cfg);
    Summaries Out;
    support::Status Verdict = Engine.analyze(D, Out);
    EXPECT_EQ(support::renderJson(Verdict), RefJson) << Trial;
    expectSameSummaries(RefOut, Out, Trial);
    EXPECT_EQ(Engine.stats().Inferred, Ref.stats().Inferred) << Trial;
    EXPECT_EQ(Engine.stats().CacheHits, Ref.stats().CacheHits) << Trial;

    // The sidecar a pool run persists is the one the serial run
    // persists — same keys, same records, same bytes.
    std::remove(CachePath.c_str());
    ASSERT_TRUE(Engine.saveCache(CachePath, D, Out).empty()) << Trial;
    EXPECT_EQ(slurp(CachePath), RefCacheBytes) << Trial;

    // Same byte-identity for the binary summary sidecar: the thread
    // count must not move a byte of the wire stream.
    EXPECT_EQ(writeSummariesBinary(D, Out), RefBinary) << Trial;

    // Warm re-run on the same engine: all cache hits, zero drift.
    Summaries Warm;
    support::Status WarmVerdict = Engine.analyze(D, Warm);
    EXPECT_EQ(support::renderJson(WarmVerdict), RefJson)
        << Trial << " warm";
    expectSameSummaries(RefOut, Warm, Trial + " warm");
    if (!RefVerdict.hasError()) {
      EXPECT_EQ(Engine.stats().CacheHits, RefOut.size())
          << Trial << " warm";
      EXPECT_EQ(Engine.stats().Inferred, 0u) << Trial << " warm";
    }
  }
  std::remove(RefCachePath.c_str());
  std::remove(CachePath.c_str());
}

// The acceptance bar: >= 100 seeded designs. 120 seeds x 3 topologies
// rotation, 30 of them loop-injected. Labeled `slow`/`scale` in
// tests/CMakeLists.txt.
INSTANTIATE_TEST_SUITE_P(MegaScaleDesigns, ThreadTrial,
                         ::testing::Range<uint32_t>(0, 120));

TEST_P(CircuitTrial, Stage3PairwiseMatchesSccAndInjection) {
  const uint32_t Seed = 9000 + GetParam();
  MegaScaleParams P = paramsFor(GetParam());
  P.Seed = Seed;
  // Half the trials ring-injected so Stage 3 has real from-port ->
  // to-port work (clean mega designs discharge everything by sort).
  P.InjectLoop = GetParam() % 2 == 1;

  Design D;
  Circuit Circ = buildMegaScaleCircuit(D, P);
  SummaryEngine Engine;
  Summaries Out;
  ASSERT_FALSE(Engine.analyze(D, Out).hasError()) << "seed " << Seed;

  CircuitCheckResult Pairwise = checkCircuitPairwise(Circ, Out);
  CircuitCheckResult Scc = checkCircuit(Circ, Out);
  EXPECT_EQ(Pairwise.WellConnected, Scc.WellConnected) << "seed " << Seed;
  EXPECT_EQ(Pairwise.WellConnected, !P.InjectLoop) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(MegaScaleCircuits, CircuitTrial,
                         ::testing::Range<uint32_t>(0, 40));
