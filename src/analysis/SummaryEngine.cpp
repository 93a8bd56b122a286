//===- analysis/SummaryEngine.cpp - Parallel cached Stage-1 ---------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/SummaryIO.h"
#include "ir/StructuralHash.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

// --- SummaryCache -----------------------------------------------------------

std::optional<ModuleSummary>
SummaryCache::lookup(uint64_t Key, ModuleId Id, const std::string &Name) {
  static trace::Counter &HitCounter = trace::counter("engine.cache_hits");
  static trace::Counter &MissCounter =
      trace::counter("engine.cache_misses");
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Misses;
    MissCounter.add();
    return std::nullopt;
  }
  ++Hits;
  HitCounter.add();
  ModuleSummary S = It->second;
  // Content addressing is design-independent; only the owning design's
  // module id (and, pedantically, the name) need rebinding.
  S.Id = Id;
  S.ModuleName = Name;
  return S;
}

void SummaryCache::insert(uint64_t Key, const ModuleSummary &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.emplace(Key, S);
}

size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void SummaryCache::resetCounters() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Hits = Misses = 0;
}

void SummaryCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  Hits = Misses = 0;
}

// --- Cache keys -------------------------------------------------------------

namespace {

/// Content hash of a summary, used to key ascribed modules (whose bodies
/// are opaque — the summary IS the content).
uint64_t summaryContentHash(const ModuleSummary &S) {
  uint64_t H = 0x5ca1ab1e;
  for (const auto &[In, Outs] : S.OutputPortSets) {
    H = hashCombine(H, In);
    for (WireId Out : Outs)
      H = hashCombine(H, Out);
    H = hashCombine(H, 0xffffffffULL); // Set delimiter.
  }
  for (const auto &[Out, Ins] : S.InputPortSets) {
    H = hashCombine(H, Out);
    for (WireId In : Ins)
      H = hashCombine(H, In);
    H = hashCombine(H, 0xffffffffULL);
  }
  for (const auto &[Port, Sub] : S.SubSorts)
    H = hashCombine(H, (uint64_t(Port) << 8) | uint64_t(Sub));
  return H;
}

/// FNV-1a 64 of \p Text — the per-record checksum of cache format v2
/// (docs/ROBUSTNESS.md). Not cryptographic; it catches the failure mode
/// a cache actually has (torn writes, bit rot, hand edits), cheaply.
uint64_t recordChecksum(const std::string &Text) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// Runs inference for one module with panic containment: a throw —
/// injected via the engine.module.throw failpoint or genuine — becomes a
/// WS604_WORKER_PANIC diagnostic attributed to the module, instead of
/// unwinding into the pool (worst case std::terminate).
InferenceResult
inferContained(const Design &D, ModuleId Id,
               const std::map<ModuleId, ModuleSummary> &Subs,
               const support::Deadline *DL, bool &Panicked) {
  auto panic = [&](const char *What) {
    Panicked = true;
    return support::Diag(support::DiagCode::WS604_WORKER_PANIC,
                         "worker panic while summarizing module '" +
                             D.module(Id).Name + "'")
        .withNote("module", D.module(Id).Name)
        .withNote("what", What);
  };
  try {
    if (WS_FAILPOINT("engine.module.throw"))
      throw std::runtime_error("injected fault: engine.module.throw");
    return inferSummary(D, Id, Subs, DL);
  } catch (const std::exception &E) {
    return panic(E.what());
  } catch (...) {
    return panic("unknown exception");
  }
}

/// Scheduler state for one analyze() call. All mutable members are
/// guarded by Mutex once the parallel phase starts; Out is pre-populated
/// with every module id so tasks read/write disjoint mapped values
/// without ever mutating the map structure.
struct Run {
  const Design &D;
  const std::map<ModuleId, ModuleSummary> &Ascribed;
  std::map<ModuleId, ModuleSummary> &Out;
  SummaryCache *Cache; // Null when the cache is disabled.
  const std::vector<uint64_t> &Keys;

  enum class State : uint8_t {
    Waiting,
    Done,
    Looped,
    Skipped,
    Cancelled, ///< Abandoned to the deadline (or an injected cancel).
    Panicked,  ///< Worker threw; contained as WS604.
  };

  std::vector<State> States;
  std::vector<uint32_t> DepsLeft;
  std::vector<std::vector<ModuleId>> Dependents;
  /// Per-module diagnostics (loops, panics; empty for clean modules).
  /// Indexed by module id, which is also the order the final list is
  /// emitted in — the thread schedule can never reorder it.
  std::vector<support::DiagList> Loops;
  size_t Hits = 0, Inferred = 0, AscribedCount = 0;
  /// In-flight key table of the pool path (cache enabled only): per key,
  /// the module inferring it and the modules of the same key parked
  /// behind it. Content-identical modules often become ready together;
  /// without the table each would miss the cache and infer.
  struct Claim {
    ModuleId Claimant;
    std::vector<ModuleId> Parked;
  };
  std::unordered_map<uint64_t, Claim> InFlight;
  /// Latched once the deadline fires (or engine.cancel injects); from
  /// then on no new module starts. Guarded by Mutex.
  bool CancelFlag = false;

  std::mutex Mutex;

  Run(const Design &D, const std::map<ModuleId, ModuleSummary> &Ascribed,
      std::map<ModuleId, ModuleSummary> &Out, SummaryCache *Cache,
      const std::vector<uint64_t> &Keys)
      : D(D), Ascribed(Ascribed), Out(Out), Cache(Cache), Keys(Keys) {}

  /// Distinct instantiated definitions of module \p Id.
  static std::vector<ModuleId> depsOf(const Module &M) {
    std::vector<ModuleId> Deps;
    for (const SubInstance &Inst : M.Instances)
      Deps.push_back(Inst.Def);
    std::sort(Deps.begin(), Deps.end());
    Deps.erase(std::unique(Deps.begin(), Deps.end()), Deps.end());
    return Deps;
  }

  /// Polls deadline + injected cancellation, latching CancelFlag. Caller
  /// holds Mutex.
  bool checkCancel(const support::Deadline &DL) {
    if (CancelFlag)
      return true;
    if (DL.expired() || WS_FAILPOINT("engine.cancel"))
      CancelFlag = true;
    return CancelFlag;
  }

  /// How a module was resolved without running inference.
  enum class Cheap : uint8_t { No, Ascribed, Hit };

  /// Resolves \p Id without inference (ascription or cache hit) if
  /// possible. Caller holds Mutex.
  Cheap tryResolveCheaply(ModuleId Id) {
    auto AscIt = Ascribed.find(Id);
    if (AscIt != Ascribed.end()) {
      Out[Id] = AscIt->second;
      ++AscribedCount;
      return Cheap::Ascribed;
    }
    if (Cache) {
      if (auto Hit =
              Cache->lookup(Keys[Id], Id, D.module(Id).Name)) {
        Out[Id] = std::move(*Hit);
        ++Hits;
        return Cheap::Hit;
      }
    }
    return Cheap::No;
  }

  /// Parks \p Id behind the in-flight claimant of its key, if any; it is
  /// handed back by the claimant's finish(). Caller holds Mutex.
  bool parkIfInFlight(ModuleId Id) {
    auto It = InFlight.find(Keys[Id]);
    if (It == InFlight.end())
      return false;
    It->second.Parked.push_back(Id);
    return true;
  }

  /// Marks \p Id finished and returns the modules that became ready: its
  /// dependents whose last definition this was, and, if \p Id claimed its
  /// key, the modules parked behind it. Those retry from scratch: a hit
  /// after a clean claimant, their own inference (and loop) otherwise —
  /// exactly what the serial sweep does with them. Caller holds Mutex.
  std::vector<ModuleId> finish(ModuleId Id, State S) {
    States[Id] = S;
    std::vector<ModuleId> Ready;
    if (!InFlight.empty()) {
      auto It = InFlight.find(Keys[Id]);
      if (It != InFlight.end() && It->second.Claimant == Id) {
        Ready = std::move(It->second.Parked);
        InFlight.erase(It);
      }
    }
    for (ModuleId Dep : Dependents[Id]) {
      // A dependent of an unsummarizable module can never be summarized
      // itself. Cancellation taints transitively as Cancelled (so the
      // WS601 tally reflects everything the deadline cost); any other
      // failure taints as Skipped (the root cause is already reported).
      if (S == State::Cancelled)
        States[Dep] = State::Cancelled;
      else if (S != State::Done && States[Dep] != State::Cancelled)
        States[Dep] = State::Skipped;
      if (--DepsLeft[Dep] == 0)
        Ready.push_back(Dep);
    }
    return Ready;
  }
};

} // namespace

// --- SummaryEngine ----------------------------------------------------------

std::vector<uint64_t>
SummaryEngine::computeKeys(const Design &D,
                           const std::map<ModuleId, ModuleSummary> &Ascribed) {
  // Cache keys, serially in dependency order (cheap: one hash pass over
  // the design). A module's key folds the keys of its instantiated
  // definitions in instance order, so content addressing is transitive.
  std::optional<std::vector<ModuleId>> Order = D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");
  std::vector<uint64_t> Keys(D.numModules(), 0);
  for (ModuleId Id : *Order) {
    auto AscIt = Ascribed.find(Id);
    if (AscIt != Ascribed.end()) {
      Keys[Id] = hashCombine(0xa5c81bed, summaryContentHash(AscIt->second));
      continue;
    }
    const Module &M = D.module(Id);
    uint64_t Key = structuralHash(M);
    for (const SubInstance &Inst : M.Instances)
      Key = hashCombine(Key, Keys[Inst.Def]);
    Keys[Id] = Key;
  }
  return Keys;
}

const std::vector<uint64_t> &
SummaryEngine::primeKeys(const Design &D,
                         const std::map<ModuleId, ModuleSummary> &Ascribed) {
  Keys = computeKeys(D, Ascribed);
  return Keys;
}

support::Status
SummaryEngine::analyze(const Design &D,
                       std::map<ModuleId, ModuleSummary> &Out,
                       const std::map<ModuleId, ModuleSummary> &Ascribed) {
  return analyze(D, Out, Ascribed,
                 LegacyTimeoutMs != 0
                     ? support::Deadline::afterMs(LegacyTimeoutMs)
                     : support::Deadline());
}

support::Status
SummaryEngine::analyze(const Design &D,
                       std::map<ModuleId, ModuleSummary> &Out,
                       const std::map<ModuleId, ModuleSummary> &Ascribed,
                       const support::Deadline &DL) {
  AnalyzeOutcome Outcome;
  support::Status Verdict = analyzeShared(D, Out, Ascribed, DL, Outcome);
  Stats = Outcome.Stats;
  Keys = std::move(Outcome.Keys);
  return Verdict;
}

support::Status
SummaryEngine::analyzeShared(const Design &D,
                             std::map<ModuleId, ModuleSummary> &Out,
                             const std::map<ModuleId, ModuleSummary> &Ascribed,
                             const support::Deadline &DL,
                             AnalyzeOutcome &Outcome) {
  Timer T;
  // Everything below writes through these aliases; no engine member is
  // touched except the thread-safe Cache, keeping this path re-entrant.
  EngineStats &Stats = Outcome.Stats;
  Stats = EngineStats();
  Stats.Modules = D.numModules();

  trace::Span AnalyzeSpan("engine.analyze", "engine");
  AnalyzeSpan.note("modules", static_cast<uint64_t>(D.numModules()));
  // Registry mirrors of EngineStats (docs/OBSERVABILITY.md). The cache
  // hit/miss counters live in SummaryCache::lookup.
  static trace::Histogram &InferUs = trace::histogram("engine.infer_us");
  static trace::Counter &ModulesC = trace::counter("engine.modules");
  static trace::Counter &InferredC = trace::counter("engine.inferred");
  static trace::Counter &AscribedC = trace::counter("engine.ascribed");
  static trace::Counter &CancelledC =
      trace::counter("fault.cancelled_modules");

  std::optional<std::vector<ModuleId>> Order =
      D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");

  Outcome.Keys = computeKeys(D, Ascribed);
  const std::vector<uint64_t> &Keys = Outcome.Keys;

  // --- Scheduler state.
  Out.clear();
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    Out[Id]; // Pre-insert every slot: map structure stays frozen below.

  Run R(D, Ascribed, Out, Cfg.UseCache ? &Cache : nullptr, Keys);
  R.States.assign(D.numModules(), Run::State::Waiting);
  R.DepsLeft.assign(D.numModules(), 0);
  R.Dependents.assign(D.numModules(), {});
  R.Loops.assign(D.numModules(), {});
  for (ModuleId Id = 0; Id != D.numModules(); ++Id) {
    std::vector<ModuleId> Deps = Run::depsOf(D.module(Id));
    R.DepsLeft[Id] = static_cast<uint32_t>(Deps.size());
    for (ModuleId Dep : Deps)
      R.Dependents[Dep].push_back(Id);
  }

  unsigned Threads = Cfg.Threads != 0
                         ? Cfg.Threads
                         : std::max(1u, std::thread::hardware_concurrency());
  Stats.ThreadsUsed = Threads;

  const support::Deadline *DLPtr = DL.active() ? &DL : nullptr;
  std::vector<std::exception_ptr> Escaped;

  // Folds one inference result into the scheduler. Caller holds R.Mutex;
  // returns the dependents that became ready.
  auto settle = [&](ModuleId Id, InferenceResult &Result,
                    bool Panicked) -> std::vector<ModuleId> {
    if (Result) {
      ModuleSummary &S = *Result;
      if (R.Cache)
        R.Cache->insert(Keys[Id], S);
      R.Out[Id] = std::move(S);
      ++R.Inferred;
      return R.finish(Id, Run::State::Done);
    }
    if (Panicked) {
      R.Loops[Id] = Result.diags();
      return R.finish(Id, Run::State::Panicked);
    }
    if (Result.diags().firstError().code() ==
        support::DiagCode::WS601_CANCELLED) {
      // Inference noticed the deadline mid-module; the module is
      // abandoned, not failed — the one WS601 appended to the verdict
      // covers it.
      R.CancelFlag = true;
      return R.finish(Id, Run::State::Cancelled);
    }
    R.Loops[Id] = Result.diags();
    return R.finish(Id, Run::State::Looped);
  };

  if (Threads <= 1) {
    // Serial path: plain topological sweep, no pool, no locking beyond
    // the shared helpers' discipline. Kept separate both as the baseline
    // the determinism suite compares against and because it is what a
    // 1-thread engine should cost.
    for (ModuleId Id : *Order) {
      if (R.States[Id] == Run::State::Skipped) {
        R.finish(Id, Run::State::Skipped); // Propagate to dependents.
        continue;
      }
      if (R.States[Id] == Run::State::Cancelled || R.checkCancel(DL)) {
        R.finish(Id, Run::State::Cancelled);
        continue;
      }
      trace::Span MSpan("engine.module", "engine");
      MSpan.note("module", D.module(Id).Name);
      if (Run::Cheap C = R.tryResolveCheaply(Id); C != Run::Cheap::No) {
        MSpan.note("result", C == Run::Cheap::Hit ? "hit" : "ascribed");
        R.finish(Id, Run::State::Done);
        continue;
      }
      Timer InferTimer;
      bool Panicked = false;
      InferenceResult Result =
          inferContained(D, Id, Out, DLPtr, Panicked);
      InferUs.record(
          static_cast<uint64_t>(InferTimer.seconds() * 1e6));
      MSpan.note("result", Result ? "miss"
                                  : (Panicked ? "panic" : "loop"));
      settle(Id, Result, Panicked);
    }
  } else {
    ThreadPool Pool(Threads);

    // Submitting a module either resolves it on the spot (ascribed /
    // cache hit / already-skipped / cancelled) or hands inference to the
    // pool; the completion path re-enters schedule() for the dependents
    // it releases. The worklist keeps resolution iterative: a chain of a
    // thousand cache hits must not recurse a thousand frames deep.
    std::function<void(std::vector<ModuleId>)> schedule =
        [&](std::vector<ModuleId> Work) {
          std::vector<ModuleId> ToInfer;
          {
            std::lock_guard<std::mutex> Lock(R.Mutex);
            while (!Work.empty()) {
              ModuleId Id = Work.back();
              Work.pop_back();
              if (R.States[Id] == Run::State::Skipped) {
                std::vector<ModuleId> Ready =
                    R.finish(Id, Run::State::Skipped);
                Work.insert(Work.end(), Ready.begin(), Ready.end());
                continue;
              }
              if (R.States[Id] == Run::State::Cancelled ||
                  R.checkCancel(DL)) {
                std::vector<ModuleId> Ready =
                    R.finish(Id, Run::State::Cancelled);
                Work.insert(Work.end(), Ready.begin(), Ready.end());
                continue;
              }
              // A follower of an in-flight key waits for the claimant
              // rather than missing the cache and inferring it again.
              if (R.Cache && R.parkIfInFlight(Id))
                continue;
              if (Run::Cheap C = R.tryResolveCheaply(Id);
                  C != Run::Cheap::No) {
                // Zero-width marker span: cheap resolutions cost ~no
                // time but still show up in the trace with their
                // hit/ascribed attribute.
                trace::Span CheapSpan("engine.module", "engine");
                CheapSpan.note("module", R.D.module(Id).Name)
                    .note("result",
                          C == Run::Cheap::Hit ? "hit" : "ascribed");
                std::vector<ModuleId> Ready =
                    R.finish(Id, Run::State::Done);
                Work.insert(Work.end(), Ready.begin(), Ready.end());
                continue;
              }
              if (R.Cache)
                R.InFlight.emplace(Keys[Id], Run::Claim{Id, {}});
              ToInfer.push_back(Id);
            }
          }
          for (ModuleId Id : ToInfer)
            Pool.submit([&, Id] {
              // The module may have been queued before a cancel latched;
              // re-check at task start so a timed-out run drains fast.
              {
                std::vector<ModuleId> Ready;
                bool CancelledHere = false;
                {
                  std::lock_guard<std::mutex> Lock(R.Mutex);
                  if (R.States[Id] == Run::State::Cancelled ||
                      R.checkCancel(DL)) {
                    Ready = R.finish(Id, Run::State::Cancelled);
                    CancelledHere = true;
                  }
                }
                if (CancelledHere) {
                  if (!Ready.empty())
                    schedule(std::move(Ready));
                  return;
                }
              }
              trace::Span MSpan("engine.module", "engine");
              MSpan.note("module", R.D.module(Id).Name);
              // Reads dep slots of Out; they were written before this
              // task was submitted (happens-before via R.Mutex and the
              // pool queue), and the map structure is frozen.
              Timer InferTimer;
              bool Panicked = false;
              InferenceResult Result =
                  inferContained(R.D, Id, R.Out, DLPtr, Panicked);
              InferUs.record(
                  static_cast<uint64_t>(InferTimer.seconds() * 1e6));
              MSpan.note("result",
                         Result ? "miss" : (Panicked ? "panic" : "loop"));
              std::vector<ModuleId> Ready;
              {
                std::lock_guard<std::mutex> Lock(R.Mutex);
                Ready = settle(Id, Result, Panicked);
              }
              if (!Ready.empty())
                schedule(std::move(Ready));
            });
        };

    std::vector<ModuleId> Roots;
    for (ModuleId Id = 0; Id != D.numModules(); ++Id)
      if (R.DepsLeft[Id] == 0)
        Roots.push_back(Id);
    schedule(std::move(Roots));
    Pool.wait();
    Escaped = Pool.drainExceptions();
  }

  // --- Verdict: every failed module's diagnostics, in module-id order —
  // --- the same list serial analyzeDesign emits, whatever the schedule.
  support::Status Verdict;
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    Verdict.append(R.Loops[Id]);

  // Backstop: the engine contains throws per-module, so nothing should
  // reach the pool's catch-all; if something does (a throw outside
  // inferContained), it is still a structured error, not a terminate.
  for (std::exception_ptr &P : Escaped) {
    const char *What = "unknown exception";
    try {
      std::rethrow_exception(P);
    } catch (const std::exception &E) {
      What = E.what();
      Verdict.add(support::Diag(support::DiagCode::WS604_WORKER_PANIC,
                                "worker panic escaped containment")
                      .withNote("what", What));
      continue;
    } catch (...) {
    }
    Verdict.add(support::Diag(support::DiagCode::WS604_WORKER_PANIC,
                              "worker panic escaped containment")
                    .withNote("what", What));
  }

  size_t DoneCount = 0, CancelledCount = 0, PanickedCount = 0;
  for (ModuleId Id = 0; Id != D.numModules(); ++Id) {
    switch (R.States[Id]) {
    case Run::State::Done:
      ++DoneCount;
      break;
    case Run::State::Cancelled:
      ++CancelledCount;
      break;
    case Run::State::Panicked:
      ++PanickedCount;
      break;
    default:
      break;
    }
  }
  if (R.CancelFlag || CancelledCount != 0) {
    CancelledC.add(CancelledCount);
    Verdict.add(
        support::Diag(support::DiagCode::WS601_CANCELLED,
                      "analysis cancelled before completion")
            .withNote("completed", std::to_string(DoneCount))
            .withNote("cancelled", std::to_string(CancelledCount))
            .withNote("modules", std::to_string(D.numModules())));
  }

  // Unresolved slots (failed/cancelled modules and their transitive
  // dependents) must not leak placeholder summaries; completed modules
  // survive even in a cancelled run (partial progress warms the cache).
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    if (R.States[Id] != Run::State::Done)
      Out.erase(Id);

  Stats.CacheHits = R.Hits;
  Stats.Inferred = R.Inferred;
  Stats.Ascribed = R.AscribedCount;
  Stats.Cancelled = CancelledCount;
  Stats.Panicked = PanickedCount;
  Stats.Seconds = T.seconds();
  ModulesC.add(Stats.Modules);
  InferredC.add(Stats.Inferred);
  AscribedC.add(Stats.Ascribed);
  return Verdict;
}

// --- Disk persistence -------------------------------------------------------

namespace {

/// Cache payload schema version carried by the StreamBegin record.
/// v1/v2 were the text sidecar formats; v3 is the first binary one.
constexpr uint64_t CachePayloadVersion = 3;

/// Composes a cache-v3 wire stream: StreamBegin(Cache, 3), then one
/// CacheEntry record (8-byte key + name-based summary body) per entry,
/// then StreamEnd. The framing's FNV-1a record checksums replace the
/// v2 "# key" checksum lines.
std::string
composeCachePayload(const Design &D,
                    const std::vector<std::pair<uint64_t,
                                                const ModuleSummary *>>
                        &Entries) {
  support::wire::Writer W;
  W.beginStream(support::wire::StreamKind::Cache, CachePayloadVersion);
  for (const auto &[Key, S] : Entries) {
    W.beginRecord(support::wire::RecordKind::CacheEntry);
    W.putFixed64(Key);
    analysis::detail::encodeSummaryBody(W, D.module(S->Id), *S);
    W.endRecord();
  }
  W.finish();
  return W.take();
}

/// The crash-safe atomic write shared by saveCache and the v2→v3
/// migration: compose in memory, write Path+".tmp", fsync, rename.
/// \p PartialSite is the torn-write crash failpoint for this caller
/// ("cache.save.partial" / "cache.migrate.partial") — it writes half
/// the payload and dies without the rename, so Path keeps its previous
/// content (CrashRecoveryTest's property).
support::Status atomicWriteCache(const std::string &Path,
                                 const std::string &Payload,
                                 const char *PartialSite) {
  static trace::Counter &RetriesC = trace::counter("fault.retries");
  const std::string Tmp = Path + ".tmp";

  auto ioFail = [](const char *Op, const std::string &P) {
    return support::Diag(support::DiagCode::WS602_CACHE_IO,
                         std::string("cannot save summary cache: ") + Op +
                             " failed",
                         support::Severity::Warning)
        .withNote("path", P)
        .withNote("detail", std::strerror(errno));
  };

  // Transient failures retry with backoff; persistent ones degrade to a
  // warning (the verdict never depends on the cache).
  support::Status LastFailure;
  for (int Attempt = 0; Attempt != 3; ++Attempt) {
    if (Attempt != 0) {
      RetriesC.add();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1u << Attempt));
    }

    int Fd;
    if (WS_FAILPOINT("cache.save.open")) {
      errno = EIO;
      Fd = -1;
    } else {
      Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }
    if (Fd < 0) {
      LastFailure = ioFail("open", Tmp);
      continue;
    }

    // Crash simulation: write a torn prefix and die without the rename.
    // The recovery property (CrashRecoveryTest) is that Path still
    // holds the previous cache — the torn bytes only ever live in .tmp.
    if (support::failpoint::site(PartialSite).shouldFire()) {
      (void)!::write(Fd, Payload.data(), Payload.size() / 2);
      ::_exit(125);
    }

    bool WriteFailed = false;
    size_t Off = 0;
    while (Off != Payload.size()) {
      if (WS_FAILPOINT("cache.save.write")) {
        errno = EIO;
        WriteFailed = true;
        break;
      }
      ssize_t N =
          ::write(Fd, Payload.data() + Off, Payload.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        WriteFailed = true;
        break;
      }
      Off += static_cast<size_t>(N);
    }
    if (WriteFailed) {
      LastFailure = ioFail("write", Tmp);
      ::close(Fd);
      ::unlink(Tmp.c_str());
      continue;
    }

    int FsyncRc;
    if (WS_FAILPOINT("cache.save.fsync")) {
      errno = EIO;
      FsyncRc = -1;
    } else {
      FsyncRc = ::fsync(Fd);
    }
    if (FsyncRc != 0) {
      LastFailure = ioFail("fsync", Tmp);
      ::close(Fd);
      ::unlink(Tmp.c_str());
      continue;
    }
    if (::close(Fd) != 0) {
      LastFailure = ioFail("close", Tmp);
      ::unlink(Tmp.c_str());
      continue;
    }

    int RenameRc;
    if (WS_FAILPOINT("cache.save.rename")) {
      errno = EIO;
      ::unlink(Tmp.c_str());
      RenameRc = -1;
    } else {
      RenameRc = ::rename(Tmp.c_str(), Path.c_str());
    }
    if (RenameRc != 0) {
      LastFailure = ioFail("rename", Path);
      ::unlink(Tmp.c_str());
      continue;
    }
    return {};
  }
  return LastFailure;
}

} // namespace

support::Status SummaryEngine::saveCache(
    const std::string &Path, const Design &D,
    const std::map<ModuleId, ModuleSummary> &Summaries) const {
  return saveCache(Path, D, Summaries, Keys);
}

support::Status SummaryEngine::saveCache(
    const std::string &Path, const Design &D,
    const std::map<ModuleId, ModuleSummary> &Summaries,
    const std::vector<uint64_t> &Keys) const {
  std::vector<std::pair<uint64_t, const ModuleSummary *>> Entries;
  Entries.reserve(Summaries.size());
  for (const auto &[Id, S] : Summaries)
    if (Id < Keys.size())
      Entries.emplace_back(Keys[Id], &S);
  return atomicWriteCache(Path, composeCachePayload(D, Entries),
                          "cache.save.partial");
}

support::Expected<CacheLoadResult>
SummaryEngine::loadCache(const std::string &Path, const Design &D) {
  static trace::Counter &QuarantinedC =
      trace::counter("fault.quarantined_records");
  CacheLoadResult Res;

  std::ifstream File(Path);
  if (!File)
    return Res; // Cold start: a missing sidecar is not an error.
  if (WS_FAILPOINT("cache.load.read")) {
    // Injected unreadable file: degrade to a cold start with a warning,
    // exactly like a real EIO mid-read would.
    Res.Warnings.add(
        support::Diag(support::DiagCode::WS602_CACHE_IO,
                      "cannot read summary cache; starting cold",
                      support::Severity::Warning)
            .withNote("path", Path)
            .withNote("detail", "injected fault: cache.load.read"));
    return Res;
  }
  std::stringstream SS;
  SS << File.rdbuf();
  std::string Text = SS.str();

  // --- Binary path (cache v3, the current format) ---------------------
  // The sniff byte distinguishes a wire stream from sidecar text
  // unambiguously: 0xD7 can never start a text cache. Framing damage
  // (bad checksum, truncation) quarantines the rest of the stream — a
  // length prefix after a corrupt frame cannot be trusted, so unlike
  // the line-oriented v2 loader there is no per-record resync.
  if (isWireData(Text)) {
    support::wire::Reader R(Text);
    std::string Why;
    auto formatError = [&](const std::string &Msg) {
      return support::Diag(support::DiagCode::WS502_CACHE_FORMAT, Msg)
          .withLoc(support::SrcLoc{Path, 0, 0});
    };
    if (!R.readHeader(&Why))
      return formatError("not a loadable summary cache: " + Why);

    auto quarantineRest = [&](size_t Offset, const std::string &Reason) {
      ++Res.Quarantined;
      QuarantinedC.add();
      Res.Warnings.add(
          support::Diag(support::DiagCode::WS603_CACHE_CORRUPT,
                        "corrupt cache stream quarantined from damaged "
                        "record onward; affected modules will be "
                        "re-inferred",
                        support::Severity::Warning)
              .withLoc(support::SrcLoc{Path, 0, 0})
              .withNote("offset", std::to_string(Offset))
              .withNote("detail", Reason));
    };

    bool SawBegin = false;
    for (;;) {
      support::wire::Reader::Record Rec;
      switch (R.next(Rec)) {
      case support::wire::Reader::Item::End:
        return Res;
      case support::wire::Reader::Item::Exhausted:
        quarantineRest(Rec.Offset, "stream truncated before StreamEnd");
        return Res;
      case support::wire::Reader::Item::Truncated:
        quarantineRest(Rec.Offset, "record truncated");
        return Res;
      case support::wire::Reader::Item::Corrupt:
        quarantineRest(Rec.Offset, "record checksum mismatch");
        return Res;
      case support::wire::Reader::Item::Record:
        break;
      }
      if (Rec.Kind == support::wire::RecordKind::StreamBegin) {
        support::wire::Reader::Cursor C(Rec, R);
        uint8_t Kind = 0;
        uint64_t Version = 0;
        if (!C.getByte(Kind) || !C.getVarint(Version) ||
            Kind != static_cast<uint8_t>(support::wire::StreamKind::Cache))
          return formatError(
              "not a summary cache stream (wrong stream kind)");
        if (Version > CachePayloadVersion)
          return formatError("cache format version " +
                             std::to_string(Version) +
                             " is newer than this build understands");
        SawBegin = true;
        continue;
      }
      if (Rec.Kind != support::wire::RecordKind::CacheEntry)
        continue; // Forward compat: skip record kinds we don't know.
      if (!SawBegin)
        return formatError("cache record before StreamBegin");
      if (WS_FAILPOINT("cache.load.corrupt")) {
        quarantineRest(Rec.Offset, "injected fault: cache.load.corrupt");
        return Res;
      }
      support::wire::Reader::Cursor C(Rec, R);
      uint64_t Key = 0;
      ModuleSummary S;
      std::string DecodeWhy;
      // The record passed its checksum, so a body that no longer
      // resolves is provably *stale*, not corrupt — the design evolved
      // past it (module renamed away, interface changed). Stale entries
      // never hit, so skipping silently loses nothing.
      if (!C.getFixed64(Key) || !detail::decodeSummaryBody(C, D, S, DecodeWhy))
        continue;
      Cache.insert(Key, S);
      ++Res.Loaded;
    }
  }

  // --- Text path (formats v1/v2, read-and-migrate) --------------------
  // Keys are recorded as "# key <module-name> <key> [<checksum>]"
  // comment lines, which parseSummaries skips; v1 files lack the
  // checksum. Collect them, and split the rest of the file into
  // module...end blocks (remembering each block's start line). Each
  // block is then vetted on its own: a cache's job is to never block a
  // check, so a record that fails its recorded checksum or no longer
  // parses is *quarantined* — skipped with a WS603 warning naming its
  // sidecar line — and a record with no checksum that no longer
  // resolves (stale v1, foreign design) is skipped silently, since
  // stale entries never hit anyway. Only a file that is not
  // sidecar-shaped at all (content outside any block, an unterminated
  // block) is an error: that means --cache points at something else.
  struct KeyRec {
    uint64_t Key = 0;
    bool HasCrc = false;
    uint64_t Crc = 0;
  };
  std::map<std::string, KeyRec> KeyOfName;
  struct BlockRec {
    std::string Text;
    std::string Name;
    size_t StartLine = 0;
  };
  std::vector<BlockRec> Blocks;
  BlockRec Block;
  bool InBlock = false;
  size_t LineNo = 0;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string First;
    if (!(LS >> First))
      continue; // Blank.
    if (First[0] == '#') {
      std::string KeyWord, Name;
      KeyRec Rec;
      if (First == "#" && LS >> KeyWord && KeyWord == "key" &&
          LS >> Name >> std::hex >> Rec.Key) {
        if (LS >> Rec.Crc)
          Rec.HasCrc = true;
        KeyOfName[Name] = Rec;
      }
      continue;
    }
    if (!InBlock) {
      if (First != "module") {
        return support::Diag(support::DiagCode::WS502_CACHE_FORMAT,
                             "expected 'module', got '" + First + "'")
            .withLoc(support::SrcLoc{Path, LineNo, 0});
      }
      Block.StartLine = LineNo;
      std::string Name;
      LS >> Name;
      Block.Name = Name;
    }
    InBlock = First != "end";
    Block.Text += Line;
    Block.Text += '\n';
    if (!InBlock) {
      Blocks.push_back(std::move(Block));
      Block = BlockRec();
    }
  }
  if (InBlock) {
    return support::Diag(support::DiagCode::WS502_CACHE_FORMAT,
                         "unterminated module block (missing 'end')")
        .withLoc(support::SrcLoc{Path, 0, 0});
  }

  std::vector<std::pair<uint64_t, ModuleSummary>> Migrated;
  for (const BlockRec &B : Blocks) {
    auto KeyIt = KeyOfName.find(B.Name);
    const KeyRec *Rec =
        KeyIt != KeyOfName.end() ? &KeyIt->second : nullptr;

    auto quarantine = [&](const std::string &Reason) {
      ++Res.Quarantined;
      QuarantinedC.add();
      Res.Warnings.add(
          support::Diag(support::DiagCode::WS603_CACHE_CORRUPT,
                        "corrupt cache record quarantined; module will "
                        "be re-inferred",
                        support::Severity::Warning)
              .withLoc(support::SrcLoc{Path, B.StartLine, 0})
              .withNote("module", B.Name)
              .withNote("detail", Reason));
    };

    if (Rec && Rec->HasCrc &&
        (recordChecksum(B.Text) != Rec->Crc ||
         WS_FAILPOINT("cache.load.corrupt"))) {
      quarantine("checksum mismatch");
      continue;
    }

    // A record that passes (or never carried) its checksum but fails to
    // parse is provably *stale*, not corrupt — the bytes are exactly
    // what the writer wrote, the design just evolved past them (module
    // renamed away, interface changed). Stale entries never hit, so
    // skipping silently loses nothing.
    auto Parsed = parseSummaries(B.Text, D, Path);
    if (!Parsed)
      continue;
    for (const auto &[Id, S] : *Parsed) {
      if (!Rec || D.module(Id).Name != B.Name)
        continue;
      Cache.insert(Rec->Key, S);
      ++Res.Loaded;
      Migrated.emplace_back(Rec->Key, S);
    }
  }

  // A legacy text cache that loaded cleanly is upgraded in place, so
  // the v3 fast path serves every subsequent run. The write goes
  // through the same compose/tmp/fsync/rename machinery as saveCache —
  // a crash mid-migration (cache.migrate.partial) leaves the v2 file
  // byte-identical, and the next run simply migrates again
  // (CrashRecoveryTest). A failed write degrades to the usual WS602
  // warning: migration, like every cache operation, never blocks a
  // check.
  if (!Text.empty()) {
    std::vector<std::pair<uint64_t, const ModuleSummary *>> Entries;
    Entries.reserve(Migrated.size());
    for (const auto &[Key, S] : Migrated)
      Entries.emplace_back(Key, &S);
    support::Status W = atomicWriteCache(
        Path, composeCachePayload(D, Entries), "cache.migrate.partial");
    if (!W.empty()) {
      Res.Warnings.append(W);
    } else {
      Res.Warnings.add(
          support::Diag(support::DiagCode::WS605_CACHE_MIGRATED,
                        "summary cache migrated to format v3",
                        support::Severity::Note)
              .withNote("path", Path)
              .withNote("records", std::to_string(Migrated.size())));
    }
  }
  return Res;
}
