//===- analysis/SummaryEngine.h - Parallel cached Stage-1 -------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production driver for Stage-1 inference. Section 5.5 argues that
/// per-module summary computation is embarrassingly modular: a summary
/// depends only on the module's own body plus the summaries of its
/// instantiated definitions. The SummaryEngine exploits exactly that
/// factoring twice over:
///
///  * \b Parallelism — the design's module-instantiation DAG is scheduled
///    onto a work-stealing ThreadPool; a module starts as soon as its
///    instantiated definitions are summarized, so independent subtrees of
///    the hierarchy are inferred concurrently.
///  * \b Memoization — results live in a content-addressed SummaryCache.
///    A module's cache key is ir::structuralHash of its body combined
///    with the keys of its instantiated definitions (in instance order),
///    so a hit is a proof that inference would recompute the same
///    summary. Re-checks, incremental sessions, and repeated benchmark
///    sweeps all hit the cache; edits invalidate exactly the changed
///    module and its transitive instantiators.
///
/// Determinism contract: for the same design, analyze() produces
/// structurallyEqual summaries and byte-identical diagnostics regardless
/// of thread count or cache state. On loop-containing designs every
/// module whose dependencies summarized cleanly is analyzed and its loop
/// reported, sorted by module id — exactly the list serial analyzeDesign
/// emits. EngineStats (and the engine.* trace counters) do not depend on
/// thread count either: the pool path infers each cache key once, like
/// the serial sweep, so a run that no deadline cuts short counts the
/// same hits, misses and inferences at any thread count. The
/// differential and property suites under tests/ enforce the summaries
/// and diagnostics; SummaryEngineTest the counts.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_SUMMARYENGINE_H
#define WIRESORT_ANALYSIS_SUMMARYENGINE_H

#include "analysis/CheckOptions.h"
#include "analysis/SortInference.h"
#include "ir/Design.h"
#include "support/Deadline.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wiresort::analysis {

/// Thread-safe content-addressed store of module summaries.
///
/// Keys are SummaryEngine cache keys (body hash + sub-summary keys), so
/// equal keys imply structurally identical summaries up to the module id
/// of the owning design, which lookup() patches for the caller.
class SummaryCache {
public:
  /// \returns the cached summary for \p Key with Id/ModuleName rewritten
  /// to \p Id / \p Name, or std::nullopt. Counts a hit or a miss.
  std::optional<ModuleSummary> lookup(uint64_t Key, ir::ModuleId Id,
                                      const std::string &Name);

  /// Memoizes \p S under \p Key (first write wins). One analyze() never
  /// inserts a key twice: its pool parks content-identical modules behind
  /// the one inferring their key. A duplicate insert can still come from
  /// concurrent analyzeShared() requests; it carries an identical summary
  /// by construction.
  void insert(uint64_t Key, const ModuleSummary &S);

  size_t size() const;
  size_t hits() const { return Hits; }
  size_t misses() const { return Misses; }
  void resetCounters();
  void clear();

private:
  mutable std::mutex Mutex;
  std::map<uint64_t, ModuleSummary> Entries;
  size_t Hits = 0;
  size_t Misses = 0;
};

/// Per-call counters for the most recent analyze(). The same values are
/// mirrored into the support::trace registry (counters "engine.modules",
/// "engine.cache_hits", "engine.inferred", "engine.ascribed", and the
/// "engine.infer_us" per-module histogram — docs/OBSERVABILITY.md)
/// whenever a trace::Session is live; this struct is the per-call
/// snapshot that works even with tracing disabled, the registry is the
/// session-cumulative view.
struct EngineStats {
  size_t Modules = 0;    ///< Modules the design required summaries for.
  size_t CacheHits = 0;  ///< Summaries served from the cache.
  size_t Inferred = 0;   ///< Summaries computed by inferSummary.
  size_t Ascribed = 0;   ///< Summaries taken as-is from the caller.
  size_t Cancelled = 0;  ///< Modules abandoned to a deadline (WS601).
  size_t Panicked = 0;   ///< Modules whose worker threw (WS604).
  double Seconds = 0.0;  ///< Wall-clock time of the whole analyze().
  unsigned ThreadsUsed = 1;
};

/// Everything one analyze pass produced besides the summaries
/// themselves: its counters and the per-module cache keys of the design
/// it ran over. analyzeShared() fills one of these per call instead of
/// mutating engine members, which is what lets a resident engine serve
/// concurrent requests (docs/SERVING.md).
struct AnalyzeOutcome {
  EngineStats Stats;
  std::vector<uint64_t> Keys;
};

/// What loadCache managed to recover from a sidecar. Degradation is the
/// point: corrupt or unreadable records cost warm starts, never the
/// run — Warnings carries the WS602/WS603 evidence (with the sidecar
/// line of each quarantined record) for the caller to surface.
struct CacheLoadResult {
  size_t Loaded = 0;      ///< Summaries seeded into the in-memory cache.
  size_t Quarantined = 0; ///< Records skipped for checksum/parse damage.
  support::DiagList Warnings;
};

/// Scheduler + cache front end replacing serial analyzeDesign on every
/// production path (wiresort-check, circuit checking, the benches).
class SummaryEngine {
public:
  SummaryEngine() = default;
  explicit SummaryEngine(EngineConfig Cfg) : Cfg(Cfg) {}

  /// Deprecated: construct from the flat pre-split options aggregate.
  /// Takes the engine-facing half; TimeoutMs is honored by the
  /// three-argument analyze() for compatibility. Goes away with
  /// CheckOptions itself.
  explicit SummaryEngine(const CheckOptions &Opts)
      : Cfg(Opts.engine()), LegacyTimeoutMs(Opts.TimeoutMs) {}

  /// Engine configuration this instance was built with.
  const EngineConfig &config() const { return Cfg; }

  /// Analyzes every module of \p D, filling \p Out (cleared first) with a
  /// summary per module exactly as serial analyzeDesign would. Modules
  /// present in \p Ascribed are taken as-is (opaque IP; Section 4).
  /// \returns the combinational-loop diagnostics of every module whose
  /// dependencies summarized cleanly, sorted by module id (empty — check
  /// hasError() — on success); dependents of failed modules are skipped
  /// silently and \p Out holds the summaries of everything that did
  /// summarize.
  support::Status
  analyze(const ir::Design &D, std::map<ir::ModuleId, ModuleSummary> &Out,
          const std::map<ir::ModuleId, ModuleSummary> &Ascribed = {});

  /// Like analyze() but bounded by \p DL: when the deadline expires (or
  /// its token is cancelled) no new module is started, every unfinished
  /// module and its dependents are marked Cancelled, and the returned
  /// status carries — after the usual per-module diagnostics — one
  /// WS601_CANCELLED error noting how many modules completed and how
  /// many were abandoned. Summaries of completed modules are still
  /// delivered through \p Out (partial progress is a feature: a caller
  /// can warm the cache even from a timed-out run). An inert deadline
  /// behaves exactly like the two-argument overload.
  support::Status
  analyze(const ir::Design &D, std::map<ir::ModuleId, ModuleSummary> &Out,
          const std::map<ir::ModuleId, ModuleSummary> &Ascribed,
          const support::Deadline &DL);

  /// The re-entrant core of analyze(): identical semantics, but every
  /// per-call artifact (stats, cache keys) is written into \p Outcome
  /// instead of engine members, and the only shared state touched is the
  /// SummaryCache, which is thread-safe. Any number of threads may call
  /// analyzeShared() on the same engine concurrently — the resident
  /// service (src/driver/) runs every request through this entry point.
  /// The member-mutating analyze() overloads are thin wrappers that copy
  /// the outcome back into stats()/keyOf()/saveCache() state and remain
  /// single-caller-at-a-time.
  support::Status
  analyzeShared(const ir::Design &D,
                std::map<ir::ModuleId, ModuleSummary> &Out,
                const std::map<ir::ModuleId, ModuleSummary> &Ascribed,
                const support::Deadline &DL, AnalyzeOutcome &Outcome);

  /// Pure key computation: structuralHash of each module body folded
  /// with the keys of its instantiated definitions in instance order
  /// (ascribed modules key on summary content). The one key function
  /// shared — by construction, not convention — between analyze paths,
  /// the ShardedEngine, and saveCache.
  static std::vector<uint64_t>
  computeKeys(const ir::Design &D,
              const std::map<ir::ModuleId, ModuleSummary> &Ascribed = {});

  /// Computes and retains (for keyOf/saveCache) the cache key of every
  /// module of \p D: structuralHash of the body folded with the keys of
  /// the instantiated definitions in instance order; ascribed modules
  /// key on their summary content instead. analyze() calls this itself;
  /// it is public so the ShardedEngine (analysis/Sharded.h) shares the
  /// exact same key computation — and therefore byte-identical saveCache
  /// output — without running the in-process scheduler.
  const std::vector<uint64_t> &
  primeKeys(const ir::Design &D,
            const std::map<ir::ModuleId, ModuleSummary> &Ascribed = {});

  /// Counters for the most recent analyze() call.
  const EngineStats &stats() const { return Stats; }

  /// The engine's cache (shared across analyze() calls; hand the same
  /// engine to repeated checks to get warm-cache behavior).
  SummaryCache &cache() { return Cache; }

  /// Cache key of module \p Id computed by the last analyze() call.
  uint64_t keyOf(ir::ModuleId Id) const { return Keys.at(Id); }

  /// Persists the last analyze()'s summaries of \p D as a cache-v3 wire
  /// stream (docs/FORMATS.md): one CacheEntry record per module carrying
  /// its cache key and name-based summary body, every record
  /// length-prefixed and FNV-1a-checksummed by the framing. The write is
  /// crash-safe: the whole stream is composed in memory, written to
  /// Path+".tmp", fsync'd, and renamed over \p Path, so an interrupted
  /// save leaves either the old cache or the new one — never a torn
  /// file. Transient I/O failures are retried a bounded number of times
  /// with backoff. \returns an empty Status on success, or a
  /// WS602_CACHE_IO warning naming the failing path and syscall (the
  /// caller keeps its verdict; a failed save only costs the next run its
  /// warm start).
  support::Status
  saveCache(const std::string &Path, const ir::Design &D,
            const std::map<ir::ModuleId, ModuleSummary> &Summaries) const;

  /// Re-entrant saveCache: identical stream bytes, but the per-module
  /// \p Keys come from the caller (an AnalyzeOutcome from analyzeShared)
  /// instead of the engine's last-analyze members.
  support::Status
  saveCache(const std::string &Path, const ir::Design &D,
            const std::map<ir::ModuleId, ModuleSummary> &Summaries,
            const std::vector<uint64_t> &Keys) const;

  /// Seeds the cache from a sidecar written by saveCache, resolving port
  /// names against \p D. The first byte is sniffed: a wire stream loads
  /// through the cache-v3 reader, anything else through the legacy
  /// v1/v2 text parser. Staleness of any kind is harmless: entries whose
  /// recorded key no longer matches the design never hit, and records
  /// that no longer resolve (module renamed away, interface changed) are
  /// skipped rather than loaded. Damage is quarantined, never fatal: a
  /// v2 record failing its recorded checksum is skipped with a
  /// WS603_CACHE_CORRUPT warning; a v3 record failing its framing
  /// checksum (or truncating) quarantines the rest of the stream (the
  /// length prefix after a corrupt frame cannot be trusted) with one
  /// WS603 warning naming the byte offset — either way the run degrades
  /// to cold inference for the affected modules only. A legacy text
  /// cache that loads cleanly is migrated to v3 in place via the same
  /// crash-safe atomic write as saveCache, announced by a
  /// WS605_CACHE_MIGRATED note.
  /// \returns the load tally plus warnings, or a WS502_CACHE_FORMAT
  /// diagnostic when the file is neither a cache stream nor
  /// sidecar-shaped text (--cache pointed at something else). A missing
  /// file is not an error (empty result).
  support::Expected<CacheLoadResult> loadCache(const std::string &Path,
                                               const ir::Design &D);

private:
  EngineConfig Cfg;
  /// Timeout carried over from a deprecated CheckOptions construction;
  /// honored only by the three-argument analyze(). Dies with the shim.
  uint64_t LegacyTimeoutMs = 0;
  SummaryCache Cache;
  EngineStats Stats;
  /// Per-module cache keys of the last analyzed design.
  std::vector<uint64_t> Keys;
};

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_SUMMARYENGINE_H
