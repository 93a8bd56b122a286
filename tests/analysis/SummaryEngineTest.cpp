//===- tests/analysis/SummaryEngineTest.cpp - Engine unit tests -----------===//
//
// Part of the wiresort project. Unit coverage for the parallel cached
// Stage-1 driver: DAG scheduling over diamond hierarchies, cache hit and
// miss accounting, content-addressed keys (design-independent, renaming-
// insensitive, sub-summary-sensitive), ascription, and the disk sidecar.
// The cross-cutting guarantees (verdict equals the flattened oracle,
// determinism across thread counts) live in tests/property/.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/SortInference.h"
#include "analysis/SummaryIO.h"
#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// leaf <- mid_a, leaf <- mid_b, {mid_a, mid_b} <- top: the classic
/// diamond. \returns {leaf, mid_a, mid_b, top}.
std::vector<ModuleId> buildDiamond(Design &D) {
  ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));

  std::vector<ModuleId> Ids = {Leaf};
  for (const char *Name : {"mid_a", "mid_b"}) {
    Circuit Mid(D, Name);
    InstId Front = Mid.addInstance(Leaf, "front");
    InstId Back = Mid.addInstance(Leaf, "back");
    Mid.connect(Front, "v_o", Back, "v_i");
    Ids.push_back(Mid.seal());
  }

  Circuit Top(D, "top");
  InstId A = Top.addInstance(Ids[1], "a");
  InstId B = Top.addInstance(Ids[2], "b");
  Top.connect(A, "back.v_o", B, "front.v_i");
  Ids.push_back(Top.seal());
  return Ids;
}

Summaries engineAnalyzeOrDie(SummaryEngine &Engine, const Design &D) {
  Summaries Out;
  auto Loop = Engine.analyze(D, Out);
  EXPECT_FALSE(Loop.hasError()) << Loop.describe();
  return Out;
}

void expectAllEqual(const Summaries &A, const Summaries &B) {
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Id, S] : A)
    EXPECT_TRUE(structurallyEqual(S, B.at(Id))) << "module id " << Id;
}

/// A tiny module with a fixed shape; \p Twist changes the body, \p Name
/// only the label.
Module makeCone(const std::string &Name, bool Twist) {
  Builder B(Name);
  V X = B.input("x", 1);
  V Y = B.input("y", 1);
  V T = Twist ? B.andv(X, Y) : B.xorv(X, Y);
  B.output("z", B.notv(T));
  return B.finish();
}

/// An engine with an explicit worker count, so a test covers the pool
/// path whatever the machine's core count.
EngineConfig withThreads(unsigned Threads) {
  EngineConfig Cfg;
  Cfg.Threads = Threads;
  return Cfg;
}

} // namespace

TEST(SummaryEngineTest, DiamondMatchesSerialAnalyzeDesign) {
  for (unsigned Threads : {1u, 4u}) {
    Design D;
    buildDiamond(D);

    Summaries Reference;
    ASSERT_FALSE(analyzeDesign(D, Reference).hasError());

    CheckOptions Opts;
    Opts.Threads = Threads;
    SummaryEngine Engine(Opts);
    Summaries Out = engineAnalyzeOrDie(Engine, D);
    expectAllEqual(Reference, Out);
    EXPECT_EQ(Engine.stats().Modules, D.numModules());
  }
}

TEST(SummaryEngineTest, DiamondSchedulesDependenciesBeforeDependents) {
  // The engine must summarize leaf before mids before top; since
  // inferSummary asserts its sub-summaries exist, a wrong order dies
  // loudly. Verify the observable part: every module got a summary and
  // the sub-summary-dependent keys differ across levels.
  Design D;
  std::vector<ModuleId> Ids = buildDiamond(D);
  SummaryEngine Engine;
  Summaries Out = engineAnalyzeOrDie(Engine, D);
  ASSERT_EQ(Out.size(), D.numModules());
  // mid_a and mid_b are separate seals with identical shape: same key.
  EXPECT_EQ(Engine.keyOf(Ids[1]), Engine.keyOf(Ids[2]));
  EXPECT_NE(Engine.keyOf(Ids[0]), Engine.keyOf(Ids[1]));
  EXPECT_NE(Engine.keyOf(Ids[1]), Engine.keyOf(Ids[3]));
}

TEST(SummaryEngineTest, CacheAccountingColdAndWarm) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    buildDiamond(D);
    SummaryEngine Engine(withThreads(Threads));

    engineAnalyzeOrDie(Engine, D);
    const EngineStats &Cold = Engine.stats();
    EXPECT_EQ(Cold.Modules, D.numModules());
    // mid_b is content-identical to mid_a, so even the cold pass serves it
    // from the cache.
    EXPECT_EQ(Cold.Inferred, D.numModules() - 1);
    EXPECT_EQ(Cold.CacheHits, 1u);

    engineAnalyzeOrDie(Engine, D);
    const EngineStats &Warm = Engine.stats();
    EXPECT_EQ(Warm.Inferred, 0u);
    EXPECT_EQ(Warm.CacheHits, D.numModules());
    // The cache holds one entry per distinct content.
    EXPECT_EQ(Engine.cache().size(), D.numModules() - 1);
  }
}

TEST(SummaryEngineTest, RenamingIsKeyNeutralBodyEditIsNot) {
  Design D;
  ModuleId A = D.addModule(makeCone("cone_a", false));
  ModuleId B = D.addModule(makeCone("cone_b", false)); // Renamed only.
  ModuleId C = D.addModule(makeCone("cone_c", true));  // Different body.
  SummaryEngine Engine;
  Summaries Out = engineAnalyzeOrDie(Engine, D);

  EXPECT_EQ(Engine.keyOf(A), Engine.keyOf(B));
  EXPECT_NE(Engine.keyOf(A), Engine.keyOf(C));
  // The shared entry still reports each module's own identity.
  EXPECT_EQ(Out.at(B).ModuleName, "cone_b");
  EXPECT_EQ(Out.at(B).Id, B);
}

TEST(SummaryEngineTest, LeafEditInvalidatesTransitiveInstantiators) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    std::vector<ModuleId> Ids = buildDiamond(D);
    SummaryEngine Engine(withThreads(Threads));
    engineAnalyzeOrDie(Engine, D);
    std::vector<uint64_t> Before;
    for (ModuleId Id : Ids)
      Before.push_back(Engine.keyOf(Id));

    // Edit the leaf: a summary-neutral pair of inverters off a constant.
    Module &Leaf = D.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    engineAnalyzeOrDie(Engine, D);
    // Everything re-keys (leaf body changed; the rest via sub-summary
    // keys), so everything re-infers even though the summaries are
    // unchanged.
    for (size_t I = 0; I != Ids.size(); ++I)
      EXPECT_NE(Engine.keyOf(Ids[I]), Before[I]) << "module " << I;
    EXPECT_EQ(Engine.stats().CacheHits, 1u); // mid_b off fresh mid_a again.
    EXPECT_EQ(Engine.stats().Inferred, D.numModules() - 1);
  }
}

TEST(SummaryEngineTest, KeysAreDesignIndependent) {
  // Same content at different module ids (a dummy shifts everything)
  // must produce the same keys — the "content-addressed" in the name.
  Design D1;
  ModuleId L1 = D1.addModule(gen::makeFifo({8, 2, true}));
  Circuit C1(D1, "wrap");
  C1.addInstance(L1, "inner");
  ModuleId W1 = C1.seal();

  Design D2;
  D2.addModule(makeCone("dummy", false));
  ModuleId L2 = D2.addModule(gen::makeFifo({8, 2, true}));
  Circuit C2(D2, "wrap");
  C2.addInstance(L2, "inner");
  ModuleId W2 = C2.seal();

  SummaryEngine Engine;
  engineAnalyzeOrDie(Engine, D1);
  uint64_t KeyL = Engine.keyOf(L1), KeyW = Engine.keyOf(W1);

  engineAnalyzeOrDie(Engine, D2);
  EXPECT_EQ(Engine.keyOf(L2), KeyL);
  EXPECT_EQ(Engine.keyOf(W2), KeyW);
  // And the shared cache served both across the design boundary.
  EXPECT_GE(Engine.stats().CacheHits, 2u);
}

TEST(SummaryEngineTest, DisabledCacheNeverHits) {
  Design D;
  buildDiamond(D);
  CheckOptions Opts;
  Opts.UseCache = false;
  SummaryEngine Engine(Opts);
  Summaries First = engineAnalyzeOrDie(Engine, D);
  Summaries Second = engineAnalyzeOrDie(Engine, D);
  EXPECT_EQ(Engine.stats().CacheHits, 0u);
  EXPECT_EQ(Engine.stats().Inferred, D.numModules());
  EXPECT_EQ(Engine.cache().size(), 0u);
  expectAllEqual(First, Second);
}

TEST(SummaryEngineTest, AscribedModulesAreTakenAsIs) {
  Design D;
  ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit C(D, "wrap");
  C.addInstance(Leaf, "inner");
  C.seal();

  Summaries Reference;
  ASSERT_FALSE(analyzeDesign(D, Reference).hasError());
  Summaries Ascribed = {{Leaf, Reference.at(Leaf)}};

  SummaryEngine Engine;
  Summaries Out;
  ASSERT_FALSE(Engine.analyze(D, Out, Ascribed).hasError());
  EXPECT_EQ(Engine.stats().Ascribed, 1u);
  expectAllEqual(Reference, Out);
}

TEST(SummaryEngineTest, LoopVerdictMatchesSerialDiagnostic) {
  for (unsigned Threads : {1u, 4u}) {
    Design D;
    ModuleId A = D.addModule(gen::makeFifo({8, 2, true}));
    Circuit Ring = gen::buildLoopedRing(D, {A, A}, "ring");
    Ring.seal();

    Summaries Reference;
    wiresort::support::Status Serial = analyzeDesign(D, Reference);
    ASSERT_TRUE(Serial.hasError());

    CheckOptions Opts;
    Opts.Threads = Threads;
    SummaryEngine Engine(Opts);
    Summaries Out;
    support::Status Verdict = Engine.analyze(D, Out);
    ASSERT_TRUE(Verdict.hasError());
    EXPECT_EQ(Verdict.describe(), Serial.describe());
  }
}

TEST(SummaryEngineTest, SidecarRoundTripWarmsAFreshEngine) {
  Design D;
  buildDiamond(D);
  std::string Path =
      ::testing::TempDir() + "/summary_engine_roundtrip.wsort";

  SummaryEngine Writer;
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  ASSERT_TRUE(Writer.saveCache(Path, D, Out).empty());

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_GT(Loaded->Loaded, 0u);
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty());

  Summaries Warm = engineAnalyzeOrDie(Reader, D);
  EXPECT_EQ(Reader.stats().Inferred, 0u);
  EXPECT_EQ(Reader.stats().CacheHits, D.numModules());
  expectAllEqual(Out, Warm);
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, MissingAndStaleSidecarsAreHarmless) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    buildDiamond(D);
    SummaryEngine Engine(withThreads(Threads));

    auto Missing = Engine.loadCache(
        ::testing::TempDir() + "/does_not_exist.wsort", D);
    ASSERT_TRUE(Missing.hasValue()) << Missing.describe();
    EXPECT_EQ(Missing->Loaded, 0u);

    // A sidecar written for an older body: keys no longer match, so the
    // entries load but never hit.
    std::string Path = ::testing::TempDir() + "/summary_engine_stale.wsort";
    Summaries Out = engineAnalyzeOrDie(Engine, D);
    ASSERT_TRUE(Engine.saveCache(Path, D, Out).empty());

    Design Edited;
    std::vector<ModuleId> Ids = buildDiamond(Edited);
    Module &Leaf = Edited.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    SummaryEngine Fresh(withThreads(Threads));
    auto Loaded = Fresh.loadCache(Path, Edited);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
    engineAnalyzeOrDie(Fresh, Edited);
    EXPECT_EQ(Fresh.stats().CacheHits, 1u); // Only the mid_a/mid_b share.
    std::remove(Path.c_str());
  }
}

TEST(SummaryEngineTest, SidecarBlocksForOtherDesignsAreSkipped) {
  // A cache shared across projects (or surviving a module rename) holds
  // records this design cannot resolve; they are stale entries to skip,
  // never a reason to fail the check. Exercised in the legacy text
  // format — a foreign block spliced into a v2 file — since a v2 cache
  // can reach loadCache from any older build.
  Design D;
  buildDiamond(D);
  SummaryEngine Writer;
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  std::string Path = ::testing::TempDir() + "/summary_engine_mixed.wsort";
  {
    std::ofstream V2(Path);
    V2 << "# wiresort summary cache v2\n";
    for (const auto &[Id, S] : Out)
      V2 << "# key " << D.module(Id).Name << ' ' << std::hex
         << Writer.keyOf(Id) << std::dec << '\n';
    V2 << "# key no_such_module 1234abcd\n";
    for (const auto &[Id, S] : Out)
      V2 << writeSummaries(D, {{Id, S}});
    V2 << "module no_such_module\n"
       << "  input ghost to-sync\n"
       << "end\n";
  }

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, Out.size());
  EXPECT_EQ(Loaded->Quarantined, 0u);
  Summaries Warm = engineAnalyzeOrDie(Reader, D);
  EXPECT_EQ(Reader.stats().Inferred, 0u);
  expectAllEqual(Out, Warm);
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, StaleBinaryCacheEntriesAreSkippedSilently) {
  // The v3 equivalent of cross-design staleness: a cache saved against
  // one design, loaded against a design missing those modules. Every
  // record passes its framing checksum but fails to resolve — provably
  // stale, skipped without a warning.
  Design A;
  buildDiamond(A);
  SummaryEngine Writer;
  Summaries Out = engineAnalyzeOrDie(Writer, A);
  std::string Path = ::testing::TempDir() + "/summary_engine_stale.wsort";
  ASSERT_TRUE(Writer.saveCache(Path, A, Out).empty());

  Design B; // Same leaf, no diamond: only the fifo records resolve.
  B.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));
  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, B);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, 1u); // The shared fifo module.
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty()) << Loaded->Warnings.describe();
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, SavedCacheIsAWireStreamAndReloadsWarm) {
  // The disk round trip in the current (v3) format: saveCache writes a
  // sniffable wire stream, a fresh engine reloads every record with no
  // warnings, and the warm run re-infers nothing.
  Design D;
  buildDiamond(D);
  SummaryEngine Writer;
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  std::string Path = ::testing::TempDir() + "/summary_engine_v3.wsort";
  ASSERT_TRUE(Writer.saveCache(Path, D, Out).empty());
  {
    std::ifstream In(Path, std::ios::binary);
    char First = 0;
    ASSERT_TRUE(In.get(First));
    EXPECT_EQ(static_cast<unsigned char>(First), 0xD7u);
  }

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, Out.size());
  EXPECT_TRUE(Loaded->Warnings.empty()) << Loaded->Warnings.describe();
  Summaries Warm = engineAnalyzeOrDie(Reader, D);
  EXPECT_EQ(Reader.stats().Inferred, 0u);
  EXPECT_EQ(Reader.stats().CacheHits, D.numModules());
  expectAllEqual(Out, Warm);
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, NonSidecarFilesAreRejectedByLoadCache) {
  Design D;
  buildDiamond(D);
  SummaryEngine Engine;
  std::string Path = ::testing::TempDir() + "/summary_engine_bogus.wsort";

  std::ofstream(Path) << "this is not a sidecar\n";
  auto Bogus = Engine.loadCache(Path, D);
  ASSERT_FALSE(Bogus.hasValue());
  EXPECT_EQ(Bogus.diags().firstError().code(),
            support::DiagCode::WS502_CACHE_FORMAT);
  EXPECT_NE(Bogus.describe().find("expected 'module'"), std::string::npos)
      << Bogus.describe();

  std::ofstream(Path) << "module truncated\n  input a to-sync\n";
  auto Trunc = Engine.loadCache(Path, D);
  ASSERT_FALSE(Trunc.hasValue());
  EXPECT_NE(Trunc.describe().find("unterminated"), std::string::npos)
      << Trunc.describe();
  std::remove(Path.c_str());
}
