//===- tests/parse/BlifTest.cpp - BLIF reader/writer tests ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Blif.h"

#include "analysis/SortInference.h"
#include "gen/Fifo.h"
#include "sim/Simulator.h"
#include "synth/CycleDetect.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;
using namespace wiresort::parse;

TEST(BlifTest, ParsesSimpleCombinationalModel) {
  const char *Text = R"(
# A half adder.
.model half_adder
.inputs a b
.outputs sum carry
.names a b sum
10 1
01 1
.names a b carry
11 1
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(M.Name, "half_adder");
  EXPECT_EQ(M.Inputs.size(), 2u);
  EXPECT_EQ(M.Outputs.size(), 2u);
  EXPECT_EQ(M.Nets.size(), 2u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  for (unsigned A = 0; A != 2; ++A)
    for (unsigned B = 0; B != 2; ++B) {
      S->setInput("a", A);
      S->setInput("b", B);
      S->evaluate();
      EXPECT_EQ(S->value("sum"), static_cast<uint64_t>(A ^ B));
      EXPECT_EQ(S->value("carry"), static_cast<uint64_t>(A & B));
    }
}

TEST(BlifTest, ParsesLatchesAndConstants) {
  const char *Text = R"(
.model toggler
.inputs en
.outputs q
.names one
1
.names en q nq
10 1
01 1
.latch nq q re clk 0
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(M.Registers.size(), 1u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("en", 1);
  S->evaluate();
  EXPECT_EQ(S->value("q"), 0u);
  S->step();
  S->evaluate();
  EXPECT_EQ(S->value("q"), 1u);
  S->step();
  S->evaluate();
  EXPECT_EQ(S->value("q"), 0u);
}

TEST(BlifTest, ParsesHierarchySubckt) {
  const char *Text = R"(
.model top
.inputs x
.outputs y
.subckt inv a=x y=mid
.subckt inv a=mid y=y
.end
.model inv
.inputs a
.outputs y
.names a y
0 1
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(File->Design.numModules(), 2u);
  const Module &Top = File->Design.module(File->Top);
  EXPECT_EQ(Top.Instances.size(), 2u);

  // Double inversion: y == x after flattening.
  Module Gates = synth::lower(File->Design, File->Top);
  auto S = sim::Simulator::create(Gates);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("x[0]", 1);
  S->evaluate();
  EXPECT_EQ(S->value("y[0]"), 1u);
}

TEST(BlifTest, LineContinuationsAndComments) {
  const char *Text =
      ".model wide # trailing comment\n"
      ".inputs a \\\nb\n"
      ".outputs y\n"
      ".names a b y\n11 1\n.end\n";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(File->Design.module(File->Top).Inputs.size(), 2u);
}

TEST(BlifTest, ErrorsCarryLineNumbers) {
  {
    auto File = parseBlif(".model m\n.bogus\n.end\n", "d.blif");
    ASSERT_FALSE(File.hasValue());
    const support::Diag &Diag = File.diags().firstError();
    ASSERT_TRUE(Diag.loc().has_value());
    EXPECT_EQ(Diag.loc()->File, "d.blif");
    EXPECT_EQ(Diag.loc()->Line, 2u);
  }
  {
    auto File = parseBlif(".inputs a\n");
    ASSERT_FALSE(File.hasValue());
    EXPECT_NE(File.describe().find("before .model"), std::string::npos);
  }
  {
    auto File =
        parseBlif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
                  ".names a y\n0 1\n.end\n");
    ASSERT_FALSE(File.hasValue());
    EXPECT_NE(File.describe().find("driven twice"), std::string::npos);
  }
}

TEST(BlifTest, CoverRowArityChecked) {
  auto File = parseBlif(".model m\n.inputs a b\n.outputs y\n"
                        ".names a b y\n1 1\n.end\n");
  ASSERT_FALSE(File.hasValue());
  EXPECT_NE(File.describe().find("arity"), std::string::npos);
}

TEST(BlifTest, RoundTripPreservesBehaviorAndLoops) {
  // Lower a forwarding FIFO, export, reimport, and compare both the
  // simulated behavior and the cycle-detection verdict.
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({4, 2, true}));
  Module Gates = synth::lower(D, Id);
  std::string Text = [&] {
    Design Flat;
    ModuleId FlatId = Flat.addModule(Gates);
    return writeBlif(Flat, FlatId);
  }();

  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &Reimported = File->Design.module(File->Top);
  EXPECT_EQ(Reimported.Registers.size(), Gates.Registers.size());

  auto S1 = sim::Simulator::create(Gates);
  ASSERT_TRUE(S1.hasValue()) << S1.describe();
  auto S2 = sim::Simulator::create(Reimported);
  ASSERT_TRUE(S2.hasValue()) << S2.describe();
  // Drive a push/pop sequence and compare outputs cycle by cycle.
  for (int Cycle = 0; Cycle != 40; ++Cycle) {
    uint64_t Push = (Cycle % 3) == 0;
    uint64_t Pop = (Cycle % 2) == 0;
    for (auto *S : {&*S1, &*S2}) {
      S->setInput("v_i[0]", Push);
      S->setInput("yumi_i[0]", Pop);
      for (int Bit = 0; Bit != 4; ++Bit)
        S->setInput("data_i[" + std::to_string(Bit) + "]",
                    (Cycle >> Bit) & 1);
    }
    S1->step();
    S2->step();
    for (WireId Out : Gates.Outputs)
      EXPECT_EQ(S1->value(Gates.wire(Out).Name),
                S2->value(Gates.wire(Out).Name))
          << Gates.wire(Out).Name;
  }

  EXPECT_FALSE(synth::detectCycles(Reimported).HasLoop);
}

TEST(BlifTest, ImportedDesignIsAnalyzable) {
  // The paper's pipeline: BLIF in, sorts out.
  const char *Text = R"(
.model fwdish
.inputs v_i
.outputs v_o
.names count_q v_i v_o
1- 1
-1 1
.latch v_i count_q re clk 0
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(File->Design, Out).hasError());
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(Out.at(File->Top).sortOf(M.findPort("v_i")), Sort::ToPort);
  EXPECT_EQ(Out.at(File->Top).sortOf(M.findPort("v_o")), Sort::FromPort);
}

TEST(BlifTest, ParseCacheReplaysByteIdentically) {
  const char *Text = ".model top\n"
                     ".inputs x\n.outputs y\n"
                     ".subckt inv a=x y=mid\n"
                     ".subckt inv a=mid y=y\n"
                     ".end\n"
                     ".model inv\n"
                     ".inputs a\n.outputs y\n"
                     ".names a y\n0 1\n.end\n";
  BlifParseCache Cache;
  auto First = parseBlif(Text, "c.blif", nullptr, &Cache);
  ASSERT_TRUE(First.hasValue()) << First.describe();
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 2u); // top chunk + inv chunk
  EXPECT_EQ(Cache.size(), 2u);

  auto Second = parseBlif(Text, "c.blif", nullptr, &Cache);
  ASSERT_TRUE(Second.hasValue()) << Second.describe();
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);

  // The replayed design is the parsed design, byte for byte.
  EXPECT_EQ(writeBlif(First->Design, First->Top),
            writeBlif(Second->Design, Second->Top));
  // And identical to a cache-free parse.
  auto Plain = parseBlif(Text, "c.blif");
  ASSERT_TRUE(Plain.hasValue());
  EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
            writeBlif(Second->Design, Second->Top));
}

TEST(BlifTest, ParseCacheReparsesOnlyEditedChunk) {
  auto design = [](const char *LeafBody) {
    return std::string(".model top\n.inputs x\n.outputs y\n"
                       ".subckt leaf a=x y=y\n.end\n"
                       ".model leaf\n.inputs a\n.outputs y\n") +
           LeafBody + ".end\n";
  };
  BlifParseCache Cache;
  std::string V1 = design(".names a y\n1 1\n");
  ASSERT_TRUE(parseBlif(V1, "e.blif", nullptr, &Cache).hasValue());
  ASSERT_EQ(Cache.misses(), 2u);

  // Edit the leaf body: top replays, only the leaf chunk re-parses.
  std::string V2 = design(".names a y\n0 1\n");
  auto File = parseBlif(V2, "e.blif", nullptr, &Cache);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 3u);
  auto Plain = parseBlif(V2, "e.blif");
  ASSERT_TRUE(Plain.hasValue());
  EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
            writeBlif(File->Design, File->Top));
}

TEST(BlifTest, ParseCacheRebasesDiagnosticLines) {
  // A cached chunk replayed at a different file position must report
  // resolution diagnostics at its *new* lines — byte-identical to an
  // uncached parse of the shifted file.
  const char *Body = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt nosuch a=x y=y\n.end\n";
  BlifParseCache Cache;
  auto First = parseBlif(Body, "r.blif", nullptr, &Cache);
  ASSERT_FALSE(First.hasValue());
  ASSERT_TRUE(First.diags().firstError().loc().has_value());
  EXPECT_EQ(First.diags().firstError().loc()->Line, 4u);

  // Two comment lines above shift the (unchanged, cache-hot) chunk.
  std::string Shifted = std::string("# pad\n# pad\n") + Body;
  auto Second = parseBlif(Shifted, "r.blif", nullptr, &Cache);
  ASSERT_FALSE(Second.hasValue());
  EXPECT_GE(Cache.hits(), 1u);
  ASSERT_TRUE(Second.diags().firstError().loc().has_value());
  EXPECT_EQ(Second.diags().firstError().loc()->Line, 6u);
  auto Plain = parseBlif(Shifted, "r.blif");
  EXPECT_EQ(Plain.describe(), Second.describe());
}

TEST(BlifTest, ParseCacheHonorsContinuationAcrossModelBoundary) {
  // A backslash continuation immediately before a `.model` line glues
  // the two physical lines into one logical line, so it is NOT a chunk
  // boundary; cached and plain parses must agree exactly. (Here the
  // glued line drags `.model m2` into a .names token list, which the
  // parser accepts as wire names — one model either way.)
  const char *Text = ".model m1\n"
                     ".inputs a b\n.outputs y\n"
                     ".names a b y \\\n"
                     ".model m2\n"
                     "11-- 1\n"
                     ".end\n";
  auto Plain = parseBlif(Text, "g.blif");
  BlifParseCache Cache;
  auto Cached = parseBlif(Text, "g.blif", nullptr, &Cache);
  auto Replayed = parseBlif(Text, "g.blif", nullptr, &Cache);
  ASSERT_EQ(Plain.hasValue(), Cached.hasValue());
  ASSERT_EQ(Plain.hasValue(), Replayed.hasValue());
  if (Plain.hasValue()) {
    EXPECT_EQ(Plain->Design.numModules(), 1u);
    EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
              writeBlif(Replayed->Design, Replayed->Top));
  } else {
    EXPECT_EQ(Plain.describe(), Cached.describe());
    EXPECT_EQ(Plain.describe(), Replayed.describe());
  }
}

TEST(BlifTest, ParseCacheEvictsLeastRecentlyUsedNotWholesale) {
  // Overflow evicts the coldest chunk only; the warm working set
  // survives (the daemon-residency point of the LRU — a wholesale
  // flush would cold-parse everything after one overflow).
  BlifParseCache Cache(/*MaxEntries=*/2);
  const char *A = ".model a\n.inputs i\n.outputs o\n.names i o\n1 1\n.end\n";
  const char *B = ".model b\n.inputs i\n.outputs o\n.names i o\n0 1\n.end\n";
  const char *C = ".model c\n.inputs i\n.outputs o\n.names i o\n- 1\n.end\n";
  ASSERT_TRUE(parseBlif(A, "a.blif", nullptr, &Cache).hasValue());
  ASSERT_TRUE(parseBlif(B, "b.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);

  // Touch A so B becomes the least recently used...
  ASSERT_TRUE(parseBlif(A, "a.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.hits(), 1u);
  // ...then overflow with C: exactly one chunk (B) is evicted.
  ASSERT_TRUE(parseBlif(C, "c.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.misses(), 3u);

  // A stayed warm across the overflow; B re-parses cold; both correct.
  auto AgainA = parseBlif(A, "a.blif", nullptr, &Cache);
  ASSERT_TRUE(AgainA.hasValue()) << AgainA.describe();
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(AgainA->Design.module(AgainA->Top).Name, "a");
  auto AgainB = parseBlif(B, "b.blif", nullptr, &Cache);
  ASSERT_TRUE(AgainB.hasValue()) << AgainB.describe();
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(AgainB->Design.module(AgainB->Top).Name, "b");
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(BlifTest, LinksSubcktsAgainstModelsDeclaredInAnyOrder) {
  // top -> mid -> leaf, declared top, leaf, mid: the leaf precedes its
  // (non-first) instantiator. Every order of the non-top models must
  // link, plain and through the chunk cache.
  const char *Text = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt mid a=x y=y\n.end\n"
                     ".model leaf\n.inputs a\n.outputs y\n"
                     ".names a y\n0 1\n.end\n"
                     ".model mid\n.inputs a\n.outputs y\n"
                     ".subckt leaf a=a y=t\n.subckt leaf a=t y=y\n.end\n";
  auto Plain = parseBlif(Text, "o.blif");
  ASSERT_TRUE(Plain.hasValue()) << Plain.describe();
  const Design &D = Plain->Design;
  ASSERT_EQ(D.numModules(), 3u);
  EXPECT_EQ(D.findModule("top"), Plain->Top);
  const Module &Mid = D.module(D.findModule("mid"));
  ASSERT_EQ(Mid.Instances.size(), 2u);
  EXPECT_EQ(Mid.Instances[0].Def, D.findModule("leaf"));
  EXPECT_EQ(Mid.Instances[1].Def, D.findModule("leaf"));

  BlifParseCache Cache;
  for (int Pass = 0; Pass != 2; ++Pass) { // cold, then replayed
    auto Cached = parseBlif(Text, "o.blif", nullptr, &Cache);
    ASSERT_TRUE(Cached.hasValue()) << Cached.describe();
    EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
              writeBlif(Cached->Design, Cached->Top));
  }
  EXPECT_EQ(Cache.hits(), 3u);
}

TEST(BlifTest, MutualRecursionIsReportedAsCyclic) {
  const char *Text = ".model a\n.inputs x\n.outputs y\n"
                     ".subckt b i=x o=y\n.end\n"
                     ".model b\n.inputs i\n.outputs o\n"
                     ".subckt a x=i y=o\n.end\n";
  auto File = parseBlif(Text, "m.blif");
  ASSERT_FALSE(File.hasValue());
  const support::Diag &D = File.diags().firstError();
  EXPECT_EQ(D.code(), support::DiagCode::WS202_BLIF_STRUCTURE);
  EXPECT_NE(D.message().find("module instantiation is cyclic"),
            std::string::npos)
      << D.describe();
}

namespace {

std::string toCrlf(const std::string &Lf) {
  std::string Out;
  for (char C : Lf) {
    if (C == '\n')
      Out += '\r';
    Out += C;
  }
  return Out;
}

} // namespace

TEST(BlifTest, CrlfFileMatchesItsLfTwin) {
  // A continuation before CRLF is still a continuation: the verdict, the
  // parsed design and the cache's chunk split match the LF file's. The
  // second backslash glues a `.model` line into the logical line above
  // it, so that line must not become a chunk boundary either.
  const std::string Lf = ".model top\n.inputs x \\\n  z\n.outputs y\n"
                         ".subckt inv a=x y=mid\n.subckt inv a=mid y=y\n"
                         ".names z \\\n.model\n1 1\n.end\n"
                         ".model inv\n.inputs a\n.outputs y\n"
                         ".names a y\n0 1\n.end\n";
  const std::string Crlf = toCrlf(Lf);
  auto PlainLf = parseBlif(Lf, "t.blif");
  auto PlainCrlf = parseBlif(Crlf, "t.blif");
  ASSERT_TRUE(PlainLf.hasValue()) << PlainLf.describe();
  ASSERT_TRUE(PlainCrlf.hasValue()) << PlainCrlf.describe();
  EXPECT_EQ(PlainLf->Design.module(PlainLf->Top).Inputs.size(), 2u);
  EXPECT_EQ(PlainLf->Design.numModules(), 2u);
  EXPECT_EQ(writeBlif(PlainLf->Design, PlainLf->Top),
            writeBlif(PlainCrlf->Design, PlainCrlf->Top));

  BlifParseCache LfCache, CrlfCache;
  auto CachedLf = parseBlif(Lf, "t.blif", nullptr, &LfCache);
  auto CachedCrlf = parseBlif(Crlf, "t.blif", nullptr, &CrlfCache);
  ASSERT_TRUE(CachedLf.hasValue()) << CachedLf.describe();
  ASSERT_TRUE(CachedCrlf.hasValue()) << CachedCrlf.describe();
  EXPECT_EQ(LfCache.misses(), 2u); // top (with the glued line) + inv
  EXPECT_EQ(CrlfCache.misses(), LfCache.misses());
  EXPECT_EQ(CrlfCache.size(), LfCache.size());
  EXPECT_EQ(writeBlif(PlainCrlf->Design, PlainCrlf->Top),
            writeBlif(CachedCrlf->Design, CachedCrlf->Top));
}

TEST(BlifTest, WhitespaceIsTheCLocaleSpaceSet) {
  // Tokens split on exactly space, \t, \n, \v, \f and \r.
  auto Spaced = parseBlif(".model m\n.inputs a b\n.outputs y\n"
                          ".names a b y\n11 1\n.end\n");
  auto Mixed = parseBlif(".model\tm\n.inputs\va\fb\r\n.outputs y\n"
                         ".names a\t\vb \fy\n11\t1\n.end\n");
  ASSERT_TRUE(Spaced.hasValue()) << Spaced.describe();
  ASSERT_TRUE(Mixed.hasValue()) << Mixed.describe();
  EXPECT_EQ(writeBlif(Spaced->Design, Spaced->Top),
            writeBlif(Mixed->Design, Mixed->Top));
}

TEST(BlifTest, ParsedDesignOutlivesItsTextAndCache) {
  // Nothing in a parse result or a cache entry may view the request's
  // text: the serving layer frees it after each request.
  BlifParseCache Cache;
  std::optional<BlifFile> Kept;
  {
    std::string Text = ".model top\n.inputs x\n.outputs y\n"
                       ".subckt inv a=x y=y\n.end\n"
                       ".model inv\n.inputs a\n.outputs y\n"
                       ".names a y\n0 1\n.end\n";
    ASSERT_TRUE(parseBlif(Text, "k.blif", nullptr, &Cache).hasValue());
    auto Replayed = parseBlif(Text, "k.blif", nullptr, &Cache);
    ASSERT_TRUE(Replayed.hasValue()) << Replayed.describe();
    Kept = std::move(*Replayed);
    std::fill(Text.begin(), Text.end(), '#');
  }
  std::string Again = ".model top\n.inputs x\n.outputs y\n"
                      ".subckt inv a=x y=y\n.end\n"
                      ".model inv\n.inputs a\n.outputs y\n"
                      ".names a y\n0 1\n.end\n";
  auto Fresh = parseBlif(Again, "k.blif", nullptr, &Cache);
  ASSERT_TRUE(Fresh.hasValue()) << Fresh.describe();
  EXPECT_EQ(Cache.hits(), 4u);
  EXPECT_EQ(writeBlif(Kept->Design, Kept->Top),
            writeBlif(Fresh->Design, Fresh->Top));
  EXPECT_EQ(Kept->Design.module(1).wire(0).Name, "a");
}

TEST(BlifTest, EditingAReplayedDesignLeavesTheCacheUntouched) {
  // Replayed leaf models are shared with the cache; a mutable access
  // copies the body first (ir::Design is copy-on-write).
  const std::string Text = ".model top\n.inputs x\n.outputs y\n"
                           ".subckt inv a=x y=y\n.end\n"
                           ".model inv\n.inputs a\n.outputs y\n"
                           ".names a y\n0 1\n.end\n";
  BlifParseCache Cache;
  auto First = parseBlif(Text, "w.blif", nullptr, &Cache);
  ASSERT_TRUE(First.hasValue()) << First.describe();
  const std::string Before = writeBlif(First->Design, First->Top);
  First->Design.module(1).Name = "edited";
  First->Design.module(1).Nets[0].Cover = {"11"};
  auto Second = parseBlif(Text, "w.blif", nullptr, &Cache);
  ASSERT_TRUE(Second.hasValue()) << Second.describe();
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(writeBlif(Second->Design, Second->Top), Before);
  EXPECT_EQ(First->Design.module(1).Name, "edited");
}
