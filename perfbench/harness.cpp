//===- perfbench/harness.cpp - End-to-end benchmark of wiresort -----------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Times whole check requests the way users make them (a `wiresort-check`
// process, a `wiresort-served` daemon, in-memory library calls), checks
// every verdict against a known answer that comes from the gate-level
// oracle or the generator, and prints one JSON result line. With
// --trace 1 it replays the same requests with layer spans instead and
// reports per-layer numbers. perfbench/README.md describes the workloads
// and metrics; perfbench/run.py builds this file and runs it.
//
//===----------------------------------------------------------------------===//

#include "analysis/Reachability.h"
#include "analysis/SortInference.h"
#include "analysis/SummaryEngine.h"
#include "analysis/WellConnected.h"
#include "driver/Check.h"
#include "driver/Serve.h"
#include "gen/MegaScale.h"
#include "gen/Opdb.h"
#include "parse/Blif.h"
#include "riscv/Cpu.h"
#include "support/Trace.h"
#include "synth/CycleDetect.h"
#include "synth/Flatten.h"
#include "synth/Lower.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <malloc.h>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <type_traits>
#include <unordered_map>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace wiresort;

namespace {

using Clock = std::chrono::steady_clock;
using Summaries = std::map<ir::ModuleId, analysis::ModuleSummary>;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

const analysis::EngineConfig SerialEngine{1, true};

//===-- Small utilities ---------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// SplitMix64: the benchmark's only source of randomness, seeded by
/// --seed, so a seed names one exact set of inputs.
struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out.good()) {
    std::fprintf(stderr, "wsbench: cannot write %s\n", Path.c_str());
    std::exit(2);
  }
}

/// A "VmHWM:"-style field of /proc/<pid>/status, in MB (0 if absent).
double procStatusMb(pid_t Pid, const char *Field) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  const size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::strtod(Line.c_str() + Len, nullptr) / 1024.0;
  return 0.0;
}

/// Resets this process's peak RSS to its current RSS, so the library
/// workloads report the peak of the checking, not of their set-up.
void resetPeakRss() {
  ::malloc_trim(0);
  int Fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (Fd < 0)
    return;
  (void)!::write(Fd, "5", 1);
  ::close(Fd);
}

/// The `"key":value` field of a one-line JSON object, unquoted.
std::string jsonField(const std::string &Line, const std::string &Key) {
  const std::string Pat = "\"" + Key + "\":";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return "";
  P += Pat.size();
  if (P < Line.size() && Line[P] == '"') {
    size_t E = Line.find('"', P + 1);
    return E == std::string::npos ? "" : Line.substr(P + 1, E - P - 1);
  }
  size_t E = Line.find_first_of(",}", P);
  return Line.substr(P, E == std::string::npos ? E : E - P);
}

std::string lastLine(const std::string &Text) {
  size_t End = Text.size();
  while (End && Text[End - 1] == '\n')
    --End;
  size_t Start = Text.rfind('\n', End ? End - 1 : 0);
  Start = Start == std::string::npos ? 0 : Start + 1;
  return Text.substr(Start, End - Start);
}

/// The known answer of one request, from the oracle or the generator.
struct Expect {
  bool WellConnected = true;
  size_t Modules = 0; ///< Summaries the verdict line must report.
};

/// The correctness gate for a CLI or daemon response: exit code and the
/// verdict line must both match the known answer.
bool verdictMatches(int ExitCode, const std::string &Out, const Expect &E) {
  const std::string V = lastLine(Out);
  const std::string Verdict = jsonField(V, "verdict");
  if (E.WellConnected)
    return ExitCode == 0 && Verdict == "well-connected" &&
           jsonField(V, "modules") == std::to_string(E.Modules);
  return ExitCode == 1 && Verdict != "well-connected" && !Verdict.empty();
}

//===-- Child processes ---------------------------------------------------===//

struct ProcResult {
  int ExitCode = -1;
  bool TimedOut = false;
  std::string Out;
  double Ms = 0.0;
  double MaxRssMb = 0.0;
};

/// Spawns \p Argv, collects stdout (stderr is discarded), waits for it
/// and reports its exit, wall time and peak RSS. The wall time runs
/// from just before the spawn to the reaped exit, i.e. until the
/// verdict is complete. A child still running after \p TimeoutMs is
/// killed and reported as timed out.
ProcResult runProcess(const std::vector<std::string> &Argv,
                      int TimeoutMs = 120000) {
  ProcResult R;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return R;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&FA, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  const Clock::time_point T0 = Clock::now();
  pid_t Pid = -1;
  const int SpawnErr =
      posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  ::close(Pipe[1]);
  if (SpawnErr != 0) {
    ::close(Pipe[0]);
    return R;
  }
  char Buf[1 << 16];
  for (;;) {
    const int Left = TimeoutMs - static_cast<int>(msBetween(T0, Clock::now()));
    pollfd P{Pipe[0], POLLIN, 0};
    if (Left <= 0 || ::poll(&P, 1, Left) == 0) {
      ::kill(Pid, SIGKILL);
      R.TimedOut = true;
      break;
    }
    ssize_t N = ::read(Pipe[0], Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    R.Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  int Status = 0;
  rusage RU{};
  while (::wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  R.Ms = msBetween(T0, Clock::now());
  R.MaxRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// A resident `wiresort-served` with one worker and one engine thread.
class Daemon {
public:
  Daemon(const std::string &Bin, const std::string &Sock) : Sock(Sock) {
    ::unlink(Sock.c_str());
    std::vector<std::string> Argv = {Bin,         "--socket", Sock,
                                     "--workers", "1",        "--threads",
                                     "1"};
    std::vector<char *> Args;
    for (std::string &A : Argv)
      Args.push_back(A.data());
    Args.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&FA, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    if (posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ) != 0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&FA);
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Polls Health until the daemon answers (false after 30 s).
  bool waitReady() {
    const Clock::time_point T0 = Clock::now();
    while (Pid > 0 && msBetween(T0, Clock::now()) < 30000) {
      if (driver::requestOnce(Sock, driver::Method::Health, {}, 1000).Ok)
        return true;
      ::usleep(1000);
    }
    return false;
  }

  driver::Response request(driver::Method M,
                           const driver::CheckRequest &R = {}) {
    return driver::requestOnce(Sock, M, R, 60000);
  }

  double peakRssMb() const { return procStatusMb(Pid, "VmHWM:"); }

  /// Asks for a shutdown, then reaps the process (killing it if the
  /// drain does not finish within 10 s).
  void stop() {
    if (Pid <= 0)
      return;
    (void)driver::requestOnce(Sock, driver::Method::Shutdown, {}, 5000);
    const Clock::time_point T0 = Clock::now();
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msBetween(T0, Clock::now()) > 10000) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(1000);
    }
    Pid = -1;
    ::unlink(Sock.c_str());
  }

private:
  std::string Sock;
  pid_t Pid = -1;
};

//===-- Machine-speed reference -------------------------------------------===//
//
// The VM shares its host with other tenants, and the same code runs at
// speeds that drift by 10-30% over seconds to minutes. A run's wall
// times follow that drift, so raw latencies of runs made minutes apart
// spread wider than the benchmark's bounds. Each end-to-end run therefore
// also times a fixed reference, owned by the benchmark and never changed
// with the program, once before every request, and reports its set-up
// time, latency and throughput scaled to the reference's nominal speed.

/// Keeps the reference kernels' results alive.
volatile uint64_t ReferenceSink = 0;

/// Three fixed kernels timed in a child process (so their memory does not
/// count in this process's peak RSS): a pointer chase over 64 MB (memory
/// latency), a hash-map build and probe (allocation and cache), and a
/// dependent floating-point loop (core clock). Together they take ~15 ms.
class Reference {
public:
  static constexpr int Kernels = 3;

  Reference() {
    int Req[2], Resp[2];
    if (::pipe2(Req, O_CLOEXEC) != 0 || ::pipe2(Resp, O_CLOEXEC) != 0)
      die("cannot create the reference pipes");
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid < 0)
      die("cannot fork the reference process");
    if (Pid == 0) {
      ::close(Req[1]);
      ::close(Resp[0]);
      serve(Req[0], Resp[1]);
      ::_exit(0);
    }
    ::close(Req[0]);
    ::close(Resp[1]);
    To = Req[1];
    From = Resp[0];
    char Ready;
    if (::read(From, &Ready, 1) != 1)
      die("the reference process did not start");
  }
  Reference(const Reference &) = delete;
  Reference &operator=(const Reference &) = delete;
  /// Closing the request pipe ends the child; then it is reaped.
  ~Reference() {
    ::close(To);
    ::close(From);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }

  /// Times each kernel once.
  void sample() {
    double Ms[Kernels];
    if (::write(To, "s", 1) != 1 ||
        ::read(From, Ms, sizeof Ms) != static_cast<ssize_t>(sizeof Ms))
      die("the reference process stopped");
    for (int K = 0; K != Kernels; ++K)
      Samples[K].push_back(Ms[K]);
  }

  /// The geometric mean of the kernels' median times in this run, in ms.
  double medianMs() const {
    double LogSum = 0.0;
    for (const std::vector<double> &S : Samples)
      LogSum += std::log(median(S));
    return std::exp(LogSum / Kernels);
  }

  /// Each kernel's median time in this run, in ms.
  std::vector<double> kernelMs() const {
    std::vector<double> Out;
    for (const std::vector<double> &S : Samples)
      Out.push_back(median(S));
    return Out;
  }

  /// The factor that scales a time measured in this run to the nominal
  /// machine: the reference's nominal time over its time in this run.
  double scale() const { return NominalMs / medianMs(); }

private:
  /// A fixed round figure that only sets the scale of the calibrated
  /// metrics; on the 4-vCPU x86-64 VM the benchmark was tuned on,
  /// medianMs() read 4.9-6.8 ms.
  static constexpr double NominalMs = 5.0;

  [[noreturn]] static void die(const char *Why) {
    std::fprintf(stderr, "wsbench: %s\n", Why);
    std::exit(2);
  }

  /// The child: builds the kernels' fixed inputs, then answers each
  /// request byte with the three kernel times until the pipe closes.
  static void serve(int In, int Out) {
    // One random cycle through all 16M slots (Sattolo's algorithm), so
    // the chase never settles into a short, cached loop.
    std::vector<uint32_t> Next(size_t{1} << 24);
    for (size_t I = 0; I != Next.size(); ++I)
      Next[I] = static_cast<uint32_t>(I);
    Rng R{1};
    for (size_t I = Next.size() - 1; I != 0; --I)
      std::swap(Next[I], Next[R.below(I)]);
    uint64_t Sink = 0;
    (void)!::write(Out, "r", 1);
    char Byte;
    while (::read(In, &Byte, 1) == 1) {
      double Ms[Kernels];
      Clock::time_point T0 = Clock::now();
      uint32_t P = 0;
      for (int K = 0; K != 40000; ++K)
        P = Next[P];
      Sink += P;
      Clock::time_point T1 = Clock::now();
      {
        std::unordered_map<uint64_t, uint64_t> Map;
        Rng H{2};
        for (int K = 0; K != 40000; ++K)
          Map[H.next() >> 20] = K;
        for (int K = 0; K != 40000; ++K)
          Sink += Map.count(H.next() >> 20);
      }
      Clock::time_point T2 = Clock::now();
      volatile double X = 1.0;
      for (int K = 0; K != 1000000; ++K)
        X = X * 1.0000001 + 1e-9;
      Clock::time_point T3 = Clock::now();
      Ms[0] = msBetween(T0, T1);
      Ms[1] = msBetween(T1, T2);
      Ms[2] = msBetween(T2, T3);
      ReferenceSink = Sink;
      if (::write(Out, Ms, sizeof Ms) != static_cast<ssize_t>(sizeof Ms))
        break;
    }
  }

  pid_t Pid = -1;
  int To = -1, From = -1;
  std::vector<double> Samples[Kernels];
};

//===-- Spans -------------------------------------------------------------===//

/// In-memory span recorder for the traced run. Each span has a name, a
/// start, an end, and a parent (an index, -1 for a request's root).
/// Spans are kept until the run ends and only then reduced.
///
/// A span whose call happens inside a program function the benchmark
/// cannot see into (the key computation inside `analyze`) is recorded
/// as a *shadow*: the benchmark repeats that sub-call on the same input
/// right after the request, and records it with the enclosing call as
/// its parent. Every span opened after the request's root has closed is
/// a shadow. A parent's self time is its duration minus its children's,
/// shadows included, so the request's own span stays untouched by the
/// shadow calls.
///
/// The self time of a real call that has children is only what its
/// children did not reproduce, so it is not attributed to any layer
/// (see attributed()).
class Tracer {
public:
  struct Span {
    const char *Name;
    int Parent;
    size_t Request;
    bool Shadow;
    double StartMs = 0.0;
    double EndMs = 0.0;
    double durMs() const { return EndMs - StartMs; }
  };

  int open(const char *Name, int Parent) {
    Spans.push_back({Name, Parent, Request, RootClosed, nowMs(), 0.0});
    return static_cast<int>(Spans.size() - 1);
  }
  void close(int Id) {
    Spans[Id].EndMs = nowMs();
    if (Spans[Id].Parent < 0)
      RootClosed = true;
  }

  template <typename F> auto span(const char *Name, int Parent, F &&Fn) {
    const int Id = open(Name, Parent);
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      close(Id);
    } else {
      auto R = Fn();
      close(Id);
      return R;
    }
  }
  void beginRequest() {
    ++Request;
    RootClosed = false;
  }
  size_t requests() const { return Request; }

  /// Per request: the duration of every span named \p Name, summed.
  std::vector<double> durations(const char *Name) const {
    std::vector<double> V(Request, 0.0);
    for (const Span &S : Spans)
      if (std::strcmp(S.Name, Name) == 0)
        V[S.Request - 1] += S.durMs();
    return V;
  }

  /// Per request and span name: self time (duration minus children).
  std::vector<std::map<std::string, double>> selfTimes() const {
    const std::vector<double> Child = childMs();
    std::vector<std::map<std::string, double>> Out(Request);
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Request - 1][Spans[I].Name] += Spans[I].durMs() - Child[I];
    return Out;
  }

  /// Per request: the self time that a layer accounts for. That is the
  /// self time of every shadow and of every real call without children.
  /// A real call with children (the request root, a `wiresort-check`
  /// process, the daemon round trip, `analyze`) keeps as self time only
  /// the part its children did not reproduce, which is left out.
  std::vector<double> attributed() const {
    const std::vector<double> Child = childMs();
    std::vector<bool> HasChild(Spans.size(), false);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        HasChild[S.Parent] = true;
    std::vector<double> Out(Request, 0.0);
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Shadow || !HasChild[I])
        Out[Spans[I].Request - 1] += Spans[I].durMs() - Child[I];
    return Out;
  }

private:
  std::vector<double> childMs() const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.durMs();
    return Child;
  }
  double nowMs() const { return msBetween(Base, Clock::now()); }
  Clock::time_point Base = Clock::now();
  std::vector<Span> Spans;
  size_t Request = 0;
  bool RootClosed = false;
};

/// Registry counters of the traced requests' own calls, summed. A
/// metrics-only session is open only between begin() and end(), so the
/// untraced copies and the shadow calls neither count nor pay for
/// counting.
class RequestCounters {
public:
  void begin() { Live.emplace(trace::SessionOptions{"", false}); }
  void end() {
    for (auto &[Name, V] : trace::counterSnapshot())
      Total[Name] += V;
    Live.reset();
  }
  double get(const std::string &Name) const {
    auto It = Total.find(Name);
    return It == Total.end() ? 0.0 : static_cast<double>(It->second);
  }

private:
  std::optional<trace::Session> Live;
  std::map<std::string, uint64_t> Total;
};

//===-- Results -----------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Outcome {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<Metric> Metrics;

  void gate(bool Ok, const char *What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "wsbench: wrong answer: %s\n", What);
    }
  }
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// setup_s from the set-up repeats of one run, in run order: the median
/// of five samples, each the mean of every fifth repeat. A sample so
/// spans the whole run. The VM runs the same code at two speeds about
/// 1.5x apart, each lasting from a fraction of a second to minutes, and
/// one set-up step is short enough to fall wholly in one of them, so a
/// plain median of the repeats jumps between the two levels from run to
/// run.
double setupSeconds(const std::vector<double> &Repeats) {
  constexpr size_t Samples = 5;
  std::vector<double> Sum(Samples, 0.0), Count(Samples, 0.0);
  for (size_t I = 0; I != Repeats.size(); ++I) {
    Sum[I % Samples] += Repeats[I];
    Count[I % Samples] += 1.0;
  }
  std::vector<double> Means;
  for (size_t I = 0; I != Samples; ++I)
    if (Count[I] > 0)
      Means.push_back(Sum[I] / Count[I]);
  return median(Means);
}

/// The end-to-end metrics of one closed-loop run with one client. The
/// times are scaled to the nominal machine by the reference timed before
/// each request (see Reference); the raw wall figures go to stderr.
void addEndToEnd(Outcome &O, const std::vector<double> &SetupS,
                 const std::vector<double> &LatMs, double PeakRssMb,
                 const Reference &Ref) {
  double Total = 0.0;
  for (double L : LatMs)
    Total += L;
  const double Rps = Total > 0 ? 1000.0 * LatMs.size() / Total : 0.0;
  const double Setup = setupSeconds(SetupS), Scale = Ref.scale();
  const std::vector<double> K = Ref.kernelMs();
  std::fprintf(stderr,
               "wsbench: wall latency p50 %.2f ms, throughput %.4f 1/s, "
               "set-up %.5f s; reference %.3f ms (scale %.4f; chase %.3f, "
               "map %.3f, loop %.3f ms)\n",
               median(LatMs), Rps, Setup, Ref.medianMs(), Scale, K[0], K[1],
               K[2]);
  O.add("setup_s", Setup * Scale, "s");
  O.add("latency_p50_cal_ms", median(LatMs) * Scale, "ms");
  O.add("throughput_cal_rps", Rps / Scale, "1/s");
  O.add("peak_rss_mb", PeakRssMb, "MB");
}

//===-- Inputs ------------------------------------------------------------===//

/// The RISC-V SoC exported to BLIF (the `riscv_soc --emit-blif` design)
/// with the oracle's verdict, and the handles the edit generator needs.
struct Soc {
  std::string Text;
  Expect Answer;
  std::vector<std::string> AluInputs;
  size_t AluEnd = 0; ///< Offset of the `.end` line closing alu$gates.
};

Soc buildSoc() {
  Soc S;
  ir::Design D;
  riscv::Cpu C = riscv::buildCpu(D);
  ir::ModuleId Top = riscv::sealCpu(C);
  synth::HierLowered Low = synth::lowerHierarchical(D, Top);
  S.Text = parse::writeBlif(Low.Design, Low.Top);
  // Known answer: flatten to gates and run SCC cycle detection.
  ir::Module Flat = synth::inlineInstances(Low.Design, Low.Top);
  S.Answer.WellConnected = !synth::detectCycles(Flat).HasLoop;
  S.Answer.Modules = Low.Design.numModules();

  const size_t Model = S.Text.find(".model alu$gates\n");
  const size_t Inputs = S.Text.find(".inputs ", Model);
  const size_t End = S.Text.find("\n.end\n", Model);
  if (Model == std::string::npos || Inputs == std::string::npos ||
      End == std::string::npos) {
    std::fprintf(stderr, "wsbench: SoC export has no alu$gates model\n");
    std::exit(2);
  }
  const size_t InputsEnd = S.Text.find('\n', Inputs);
  std::istringstream Names(S.Text.substr(Inputs + 8, InputsEnd - Inputs - 8));
  for (std::string N; Names >> N;)
    S.AluInputs.push_back(N);
  S.AluEnd = End + 1;
  return S;
}

/// Distinct unordered pairs of alu$gates inputs in a seeded order. Each
/// edit uses one pair, so no two edits of a run have the same shape
/// (the structural hash ignores names, so a repeated shape would be a
/// summary-cache hit).
std::vector<std::pair<uint32_t, uint32_t>> editPairs(const Soc &S, Rng &R,
                                                     size_t Count) {
  const uint32_t N = static_cast<uint32_t>(S.AluInputs.size());
  std::vector<std::pair<uint32_t, uint32_t>> All;
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = A + 1; B != N; ++B)
      All.emplace_back(A, B);
  if (Count > All.size()) {
    std::fprintf(stderr, "wsbench: %zu edits exceed the %zu distinct pairs\n",
                 Count, All.size());
    std::exit(2);
  }
  for (size_t I = 0; I != Count; ++I)
    std::swap(All[I], All[I + R.below(All.size() - I)]);
  All.resize(Count);
  return All;
}

/// The SoC with one extra 2-input AND gate in alu$gates over \p P,
/// driving a fresh wire nothing reads. An unused gate cannot close a
/// loop, so the oracle's verdict on the base design still holds.
std::string withEdit(const Soc &S, std::pair<uint32_t, uint32_t> P,
                     size_t Tag) {
  const std::string Gate = ".names " + S.AluInputs[P.first] + " " +
                           S.AluInputs[P.second] + " perfbench_edit_" +
                           std::to_string(Tag) + "\n11 1\n";
  std::string T;
  T.reserve(S.Text.size() + Gate.size());
  T.append(S.Text, 0, S.AluEnd);
  T += Gate;
  T.append(S.Text, S.AluEnd, std::string::npos);
  return T;
}

/// The gate-level OPDB sparc_tlu stand-in as a one-module design.
struct OpdbInput {
  ir::Design D;
  ir::ModuleId Id = ir::InvalidId;
  double BuildMs = 0.0, LowerMs = 0.0;
};

std::unique_ptr<OpdbInput> buildOpdbTlu() {
  auto In = std::make_unique<OpdbInput>();
  const Clock::time_point T0 = Clock::now();
  ir::Design Full;
  std::vector<gen::OpdbEntry> Entries = gen::buildOpdb(Full);
  const Clock::time_point T1 = Clock::now();
  auto It = std::find_if(Entries.begin(), Entries.end(),
                         [](const gen::OpdbEntry &E) {
                           return E.Name == "sparc_tlu";
                         });
  if (It == Entries.end()) {
    std::fprintf(stderr, "wsbench: OPDB has no sparc_tlu entry\n");
    std::exit(2);
  }
  In->Id = In->D.addModule(synth::lower(Full, It->Top));
  In->BuildMs = msBetween(T0, T1);
  In->LowerMs = msBetween(T1, Clock::now());
  return In;
}

/// One pre-built 1m-preset composition and its generator-given answer.
struct MegaCase {
  std::unique_ptr<ir::Design> D = std::make_unique<ir::Design>();
  std::optional<ir::Circuit> Circ;
  bool Loop = false;
  double BuildMs = 0.0;
};

constexpr size_t MegaPool = 16;

/// Sixteen designs from the workload seed (the generator's seed picks
/// module variants, so one design's size varies with it; a pool evens
/// that out); a seeded one of each four carries InjectLoop.
std::vector<MegaCase> buildMegaPool(Rng &R) {
  const size_t LoopAt = R.below(4);
  std::vector<MegaCase> Pool(MegaPool);
  for (size_t I = 0; I != MegaPool; ++I) {
    gen::MegaScaleParams P = *gen::megaScalePreset("1m");
    P.Seed = R.next();
    P.InjectLoop = I % 4 == LoopAt;
    Pool[I].Loop = P.InjectLoop;
    const Clock::time_point T0 = Clock::now();
    Pool[I].Circ.emplace(gen::buildMegaScaleCircuit(*Pool[I].D, P));
    Pool[I].BuildMs = msBetween(T0, Clock::now());
  }
  return Pool;
}

/// The gate for a mega request: the generator says well-connected, or
/// a WS101 loop reported at `mega_top` when the loop was injected.
bool megaVerdictMatches(const support::Status &Stage1,
                        const analysis::CircuitCheckResult &R,
                        bool ExpectLoop) {
  if (Stage1.hasError())
    return false;
  if (!ExpectLoop)
    return R.WellConnected && !R.Diags.hasError();
  for (const support::Diag &D : R.Diags)
    if (D.code() == support::DiagCode::WS101_COMB_LOOP &&
        D.message().find("'mega_top'") != std::string::npos)
      return !R.WellConnected;
  return false;
}

//===-- Workloads ---------------------------------------------------------===//

struct Env {
  std::string Check; ///< wiresort-check binary.
  std::string Served;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
};

/// Requests per run: a fixed count per --seconds (never a duration), so
/// a faster program does the same work, not more of it.
size_t requestCount(const Env &E, double PerSecond) {
  return std::max<size_t>(5, static_cast<size_t>(
                                 std::lround(PerSecond * E.Seconds)));
}

/// Whether request \p I is preceded by a repeat of the set-up step. The
/// repeats are spread evenly through the run, so that setup_s sees the
/// same machine as the request latencies (see setupSeconds).
bool setupRepeatDue(size_t I, size_t Every) { return I != 0 && I % Every == 0; }

/// This process's peak RSS in MB since the last resetPeakRss().
double selfPeakRssMb() { return procStatusMb(::getpid(), "VmHWM:"); }

const std::string OneGateBlif =
    ".model top\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";

std::vector<std::string> cliArgv(const Env &E, const std::string &Blif) {
  return {E.Check, Blif, "--format", "json", "--threads", "1"};
}

//--- cli_soc_cold ------------------------------------------------------------

/// The SoC with one seeded unused gate, and the one-gate design whose
/// spawn is the tool's own start cost, both written to the work dir.
struct CliSet {
  Soc S;
  std::string Path = "soc.blif", OneGatePath = "one_gate.blif";
  Expect OneGateAnswer{true, 1};
};

CliSet cliInputs(const Env &E) {
  CliSet C{buildSoc()};
  Rng R{E.Seed};
  writeFile(C.Path, withEdit(C.S, editPairs(C.S, R, 1)[0], 0));
  writeFile(C.OneGatePath, OneGateBlif);
  return C;
}

void runCli(const Env &E, Outcome &O) {
  Reference Ref;
  CliSet C = cliInputs(E);
  std::vector<double> Setup, Lat;
  double Peak = 0.0;
  std::string First;
  const size_t N = requestCount(E, 3.0);
  for (size_t I = 0; I != N; ++I) {
    // Set-up is only the first spawn, that is the tool's own start
    // cost: two spawns on the one-gate design before each request.
    for (int K = 0; K != 2; ++K) {
      ProcResult P = runProcess(cliArgv(E, C.OneGatePath));
      O.gate(verdictMatches(P.ExitCode, P.Out, C.OneGateAnswer),
             "cli set-up spawn");
      Setup.push_back(P.Ms / 1000.0);
    }
    Ref.sample();
    ProcResult P = runProcess(cliArgv(E, C.Path));
    Lat.push_back(P.Ms);
    Peak = std::max(Peak, P.MaxRssMb);
    if (I == 0)
      First = P.Out;
    O.gate(!P.TimedOut && verdictMatches(P.ExitCode, P.Out, C.S.Answer) &&
               P.Out == First,
           "cli_soc_cold verdict");
  }
  addEndToEnd(O, Setup, Lat, Peak, Ref);
}

//--- daemon_soc_edits --------------------------------------------------------

driver::CheckRequest inlineRequest(std::string Text) {
  driver::CheckRequest R;
  R.DesignText = std::move(Text);
  R.HasInlineText = true;
  R.DesignName = "soc.blif";
  R.Req.OutputFormat = analysis::Format::Json;
  return R;
}

/// Starts a daemon and warms it with one check of the unedited SoC.
std::unique_ptr<Daemon> startWarmDaemon(const Env &E, const Soc &S,
                                        Outcome &O, double &SetupS,
                                        const char *Sock = "served.sock") {
  const Clock::time_point T0 = Clock::now();
  auto D = std::make_unique<Daemon>(E.Served, Sock);
  const bool Ready = D->waitReady();
  driver::Response W =
      Ready ? D->request(driver::Method::Check, inlineRequest(S.Text))
            : driver::Response{};
  SetupS = msBetween(T0, Clock::now()) / 1000.0;
  O.gate(W.Ok && verdictMatches(W.ExitCode, W.Out, S.Answer),
         "daemon warming check");
  return D;
}

/// The daemon's `stats` counters must equal what N distinct edits of
/// one leaf imply: each edit re-tokenizes one chunk and replays the
/// rest, and re-infers the leaf and the top (the leaf's only
/// instantiator) while every other module is a cache hit.
bool daemonStatsMatch(Daemon &D, const Soc &S, size_t Edits) {
  driver::Response St = D.request(driver::Method::Stats);
  const std::string L = lastLine(St.Out);
  const size_t M = S.Answer.Modules;
  const std::map<std::string, size_t> Want = {
      {"requests", 1 + Edits},
      {"parse_misses", M + Edits},
      {"parse_hits", (M - 1) * Edits},
      {"parse_entries", M + Edits},
      {"cache_misses", M + 2 * Edits},
      {"cache_hits", (M - 2) * Edits},
      {"cache_entries", M + 2 * Edits},
  };
  bool Ok = St.Ok;
  for (auto &[K, V] : Want)
    if (jsonField(L, K) != std::to_string(V)) {
      std::fprintf(stderr, "wsbench: daemon stats %s = %s, expected %zu\n",
                   K.c_str(), jsonField(L, K).c_str(), V);
      Ok = false;
    }
  return Ok;
}

/// One daemon check: the client-observed latency; the verdict goes
/// through the gate.
double daemonRequest(Daemon &D, const driver::CheckRequest &Req,
                     const Soc &S, Outcome &O) {
  const Clock::time_point T0 = Clock::now();
  driver::Response Resp = D.request(driver::Method::Check, Req);
  const double Ms = msBetween(T0, Clock::now());
  O.gate(Resp.Ok && verdictMatches(Resp.ExitCode, Resp.Out, S.Answer),
         "daemon_soc_edits verdict");
  return Ms;
}

void runDaemon(const Env &E, Outcome &O) {
  Reference Ref;
  Soc S = buildSoc();
  const size_t N = requestCount(E, 7.0);
  Rng R{E.Seed};
  auto Pairs = editPairs(S, R, N);

  // Set-up: daemon start to ready plus one warming check. The first
  // daemon serves the run; each repeat starts, warms and stops another.
  std::vector<double> Setup(1), Lat;
  std::unique_ptr<Daemon> D = startWarmDaemon(E, S, O, Setup[0]);
  for (size_t I = 0; I != N; ++I) {
    if (setupRepeatDue(I, 14)) {
      Setup.push_back(0.0);
      startWarmDaemon(E, S, O, Setup.back(), "setup.sock");
    }
    Ref.sample();
    Lat.push_back(
        daemonRequest(*D, inlineRequest(withEdit(S, Pairs[I], I)), S, O));
  }
  O.gate(daemonStatsMatch(*D, S, N), "daemon_soc_edits stats counters");
  const double Peak = D->peakRssMb();
  D.reset();
  addEndToEnd(O, Setup, Lat, Peak, Ref);
}

//--- lib_opdb_infer ----------------------------------------------------------

struct OpdbSet {
  std::unique_ptr<OpdbInput> In;
  bool ExpectLoop = false;
  std::vector<double> SetupS;
};

/// Builds the stand-in afresh (the set-up step) and records its time.
void rebuildOpdb(OpdbSet &S) {
  S.In.reset();
  S.In = buildOpdbTlu();
  S.SetupS.push_back((S.In->BuildMs + S.In->LowerMs) / 1000.0);
}

OpdbSet opdbInputs() {
  OpdbSet S;
  rebuildOpdb(S);
  S.ExpectLoop = synth::detectCycles(S.In->D.module(S.In->Id)).HasLoop;
  return S;
}

/// The gate for an OPDB request: the verdict matches the oracle, and
/// the summary equals the first request's.
struct OpdbGate {
  const OpdbSet &S;
  std::optional<analysis::ModuleSummary> First;
  bool operator()(const support::Status &St, const Summaries &Out) {
    if (St.hasError() != S.ExpectLoop)
      return false;
    if (S.ExpectLoop)
      return true;
    const analysis::ModuleSummary &Sum = Out.at(S.In->Id);
    if (!First)
      First = Sum;
    return analysis::structurallyEqual(Sum, *First);
  }
};

/// One lib_opdb_infer request, a fresh serial engine's analyze: its
/// latency; the verdict goes through the gate.
double opdbRequest(const OpdbSet &S, OpdbGate &Gate, Outcome &O) {
  Summaries Out;
  const Clock::time_point T0 = Clock::now();
  analysis::SummaryEngine Engine(SerialEngine);
  support::Status St = Engine.analyze(S.In->D, Out);
  const double Ms = msBetween(T0, Clock::now());
  O.gate(Gate(St, Out), "lib_opdb_infer verdict");
  return Ms;
}

void runOpdb(const Env &E, Outcome &O) {
  // A repeated set-up rebuilds the design the requests use; the gate
  // then also checks that the rebuilt design gets the first summary.
  Reference Ref;
  OpdbSet S = opdbInputs();
  OpdbGate Gate{S, std::nullopt};
  resetPeakRss();
  double Peak = 0.0;
  std::vector<double> Lat;
  const size_t N = requestCount(E, 5.5);
  for (size_t I = 0; I != N; ++I) {
    if (setupRepeatDue(I, 8)) {
      Peak = std::max(Peak, selfPeakRssMb());
      rebuildOpdb(S);
      resetPeakRss();
    }
    Ref.sample();
    Lat.push_back(opdbRequest(S, Gate, O));
  }
  addEndToEnd(O, S.SetupS, Lat, std::max(Peak, selfPeakRssMb()), Ref);
}

//--- lib_mega_compose --------------------------------------------------------

/// One lib_mega_compose request, fresh-engine Stage 1 then Stage 3: its
/// latency; the verdict goes through the gate.
double megaRequest(MegaCase &C, Outcome &O) {
  const Clock::time_point T0 = Clock::now();
  Summaries Sums;
  analysis::SummaryEngine Engine(SerialEngine);
  support::Status Stage1 = Engine.analyze(*C.D, Sums);
  analysis::CircuitCheckResult Res = analysis::checkCircuit(*C.Circ, Sums);
  const double Ms = msBetween(T0, Clock::now());
  O.gate(megaVerdictMatches(Stage1, Res, C.Loop), "lib_mega_compose verdict");
  return Ms;
}

void runMega(const Env &E, Outcome &O) {
  // Set-up: the whole pool is built from the seed; a repeat rebuilds the
  // same pool in place. One pool build is one set-up repeat.
  Reference Ref;
  std::vector<MegaCase> Pool;
  std::vector<double> Setup, Lat;
  auto BuildPool = [&] {
    Pool.clear();
    Rng R{E.Seed};
    const Clock::time_point T0 = Clock::now();
    Pool = buildMegaPool(R);
    Setup.push_back(msBetween(T0, Clock::now()) / 1000.0);
  };
  BuildPool();
  resetPeakRss();
  double Peak = 0.0;
  const size_t N = requestCount(E, 6.5);
  for (size_t I = 0; I != N; ++I) {
    if (setupRepeatDue(I, 4)) {
      Peak = std::max(Peak, selfPeakRssMb());
      BuildPool();
      resetPeakRss();
    }
    Ref.sample();
    Lat.push_back(megaRequest(Pool[I % MegaPool], O));
  }
  addEndToEnd(O, Setup, Lat, std::max(Peak, selfPeakRssMb()), Ref);
}

//===-- The traced run ----------------------------------------------------===//
//
// Each workload's first K requests (the same requests, in the same
// order, as its end-to-end run) are sent twice, alternating request by
// request so both copies see the same machine: once untraced, giving
// the p50 the layer times must account for, and once inside a
// `request` span whose descendants are the layer calls.

/// Prints the workload's self-time table to stdout and adds its
/// unattributed remainder and tracing overhead.
void reportLayers(Outcome &O, const char *Workload, const Tracer &T,
                  const std::vector<double> &Untraced) {
  const double U = median(Untraced);
  std::map<std::string, std::vector<double>> ByLayer;
  for (auto &Req : T.selfTimes())
    for (auto &[Name, Ms] : Req)
      ByLayer[Name].push_back(Ms);
  const double Traced = median(T.durations("request"));
  std::printf("%s: %zu requests, untraced p50 %.3f ms, traced p50 %.3f ms\n",
              Workload, T.requests(), U, Traced);
  for (auto &[Name, V] : ByLayer)
    std::printf("  %-24s self p50 %10.3f ms\n", Name.c_str(), median(V));
  O.add(std::string(Workload) + ".unattributed_ms", U - median(T.attributed()),
        "ms");
  O.add(std::string(Workload) + ".trace_overhead_ms", Traced - U, "ms");
}

void traceCli(const Env &E, Outcome &O) {
  CliSet C = cliInputs(E);
  const size_t K = requestCount(E, 0.3);
  std::vector<double> Untraced;
  Tracer T;
  for (size_t I = 0; I != K; ++I) {
    ProcResult U = runProcess(cliArgv(E, C.Path));
    Untraced.push_back(U.Ms);
    O.gate(verdictMatches(U.ExitCode, U.Out, C.S.Answer), "cli_soc_cold verdict");

    T.beginRequest();
    const int Root = T.open("request", -1);
    const int Proc = T.open("cli.process", Root);
    ProcResult P = runProcess(cliArgv(E, C.Path));
    T.close(Proc);
    T.close(Root);
    O.gate(verdictMatches(P.ExitCode, P.Out, C.S.Answer), "cli_soc_cold verdict");

    // Shadows: that process's layers, repeated in-process.
    ProcResult Start = T.span("tools.startup", Proc, [&] {
      return runProcess(cliArgv(E, C.OneGatePath));
    });
    O.gate(verdictMatches(Start.ExitCode, Start.Out, C.OneGateAnswer),
           "one-gate verdict");
    std::string Text =
        T.span("driver.read", Proc, [&] { return readFile(C.Path); });
    auto File = T.span("parse.blif", Proc,
                       [&] { return parse::parseBlif(Text, C.Path); });
    if (!File) {
      O.gate(false, "cli_soc_cold parse");
      continue;
    }
    Summaries Out;
    const int An = T.open("engine.analyze", Proc);
    analysis::SummaryEngine Engine(SerialEngine);
    support::Status St = Engine.analyze(File->Design, Out);
    T.close(An);
    O.gate(St.hasError() != C.S.Answer.WellConnected &&
               Out.size() == C.S.Answer.Modules,
           "cli_soc_cold in-process verdict");
    T.span("engine.keys", An, [&] {
      return analysis::SummaryEngine::computeKeys(File->Design);
    });
  }
  const double Parse = median(T.durations("parse.blif"));
  O.add("tools.startup_ms", median(T.durations("tools.startup")), "ms");
  O.add("parse.blif_ms", Parse, "ms");
  O.add("parse.blif_mb_s", C.S.Text.size() / 1e6 / (Parse / 1000.0), "MB/s");
  reportLayers(O, "cli_soc_cold", T, Untraced);
}

void traceDaemon(const Env &E, Outcome &O) {
  Soc S = buildSoc();
  const size_t K = requestCount(E, 1.0);
  Rng R{E.Seed};
  auto Pairs = editPairs(S, R, K);

  // Two daemons, one per copy of the requests, plus an in-process
  // service, parse cache and engine for the shadow calls. All four see
  // the same warm-up and the same edits in the same order, so every
  // shadow call starts from the traced daemon's state.
  double SetupS = 0.0;
  auto Plain = startWarmDaemon(E, S, O, SetupS, "plain.sock");
  auto Traced = startWarmDaemon(E, S, O, SetupS, "traced.sock");
  driver::CheckService Service(SerialEngine);
  parse::BlifParseCache ShadowCache;
  analysis::SummaryEngine ShadowEngine(SerialEngine);
  {
    (void)Service.run(inlineRequest(S.Text));
    auto Base = parse::parseBlif(S.Text, "soc.blif", nullptr, &ShadowCache);
    Summaries Out;
    (void)ShadowEngine.analyze(Base->Design, Out);
  }
  RequestCounters Delta;
  Tracer T;
  std::vector<double> Untraced;
  for (size_t I = 0; I != K; ++I) {
    driver::CheckRequest Req = inlineRequest(withEdit(S, Pairs[I], I));
    Untraced.push_back(daemonRequest(*Plain, Req, S, O));

    T.beginRequest();
    const int Root = T.open("request", -1);
    const int Transport = T.open("serve.transport", Root);
    driver::Response Resp = Traced->request(driver::Method::Check, Req);
    T.close(Transport);
    T.close(Root);
    O.gate(Resp.Ok && verdictMatches(Resp.ExitCode, Resp.Out, S.Answer),
           "daemon_soc_edits verdict");

    // Shadows of the daemon's work: the codec around the service run,
    // and inside it the parse and the engine.
    std::string Bytes, Why;
    driver::Method M{};
    driver::CheckRequest Decoded;
    T.span("serve.codec", Transport, [&] {
      Bytes = driver::encodeRequest(driver::Method::Check, Req);
      (void)driver::decodeRequest(Bytes, M, Decoded, Why);
    });
    Delta.begin();
    const int Run = T.open("driver.run", Transport);
    driver::CheckResult Res = Service.run(Decoded);
    T.close(Run);
    Delta.end();
    driver::Response Back;
    T.span("serve.codec", Transport, [&] {
      Bytes = driver::encodeResponse(Res, driver::RespStatus::Ok);
      (void)driver::decodeResponse(Bytes, Back, Why);
    });
    O.gate(Back.Ok && Back.Out == Resp.Out, "daemon_soc_edits in-process bytes");
    auto File = T.span("parse.cache", Run, [&] {
      return parse::parseBlif(Req.DesignText, "soc.blif", nullptr,
                              &ShadowCache);
    });
    if (!File) {
      O.gate(false, "daemon_soc_edits parse");
      continue;
    }
    Summaries Out;
    const int An = T.open("engine.analyze", Run);
    (void)ShadowEngine.analyze(File->Design, Out);
    T.close(An);
    T.span("engine.keys", An, [&] {
      return analysis::SummaryEngine::computeKeys(File->Design);
    });
  }
  O.gate(daemonStatsMatch(*Plain, S, K) && daemonStatsMatch(*Traced, S, K),
         "daemon_soc_edits stats counters");
  const double Edits = static_cast<double>(K);
  const double Hits = Delta.get("engine.cache_hits");
  const double Misses = Delta.get("engine.cache_misses");
  O.add("parse.cache_ms", median(T.durations("parse.cache")), "ms");
  O.add("parse.chunk_hits", Delta.get("parse.chunk.hits") / Edits, "count");
  O.add("parse.chunk_misses", Delta.get("parse.chunk.misses") / Edits,
        "count");
  O.add("parse.cache_entries",
        static_cast<double>(Service.parseCache().size()), "count");
  O.add("engine.inferred", Delta.get("engine.inferred") / Edits, "count");
  O.add("engine.cache_hit_ratio",
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0, "ratio");
  O.add("serve.codec_ms", median(T.durations("serve.codec")), "ms");
  O.add("serve.transport_ms",
        median(T.durations("serve.transport")) -
            median(T.durations("driver.run")),
        "ms");
  reportLayers(O, "daemon_soc_edits", T, Untraced);
}

void traceOpdb(const Env &E, Outcome &O) {
  OpdbSet S = opdbInputs();
  OpdbGate Gate{S, std::nullopt};
  const size_t K = requestCount(E, 0.3);
  const ir::Module &M = S.In->D.module(S.In->Id);
  RequestCounters Delta;
  Tracer T;
  std::vector<double> Untraced;
  for (size_t I = 0; I != K; ++I) {
    Untraced.push_back(opdbRequest(S, Gate, O));
    T.beginRequest();
    Summaries Out;
    const int Root = T.open("request", -1);
    Delta.begin();
    const int An = T.open("engine.analyze", Root);
    analysis::SummaryEngine Engine(SerialEngine);
    support::Status St = Engine.analyze(S.In->D, Out);
    T.close(An);
    Delta.end();
    T.close(Root);
    O.gate(Gate(St, Out), "lib_opdb_infer verdict");
    // Shadows: the key computation and Stage 1 inside analyze.
    T.span("engine.keys", An, [&] {
      return analysis::SummaryEngine::computeKeys(S.In->D);
    });
    const int Infer = T.open("stage1.infer", An);
    (void)analysis::inferSummary(S.In->D, S.In->Id, {});
    T.close(Infer);
    auto G = T.span("stage1.combgraph_build", Infer,
                    [&] { return analysis::CombGraph::build(M, {}); });
    T.span("stage1.freeze", Infer, [&] { (void)G.frozen(); });
    T.span("stage1.closure", Infer, [&] { return G.allOutputPortSets(); });
  }
  const double Per = static_cast<double>(K);
  std::vector<double> Assembly;
  for (auto &Req : T.selfTimes())
    Assembly.push_back(Req["stage1.infer"]);
  O.add("engine.keys_ms", median(T.durations("engine.keys")), "ms");
  O.add("engine.analyze_ms", median(T.durations("engine.analyze")), "ms");
  O.add("stage1.combgraph_build_ms",
        median(T.durations("stage1.combgraph_build")), "ms");
  O.add("stage1.freeze_ms", median(T.durations("stage1.freeze")), "ms");
  O.add("stage1.closure_ms", median(T.durations("stage1.closure")), "ms");
  O.add("stage1.sort_assembly_ms", median(Assembly), "ms");
  O.add("kernel.words_swept", Delta.get("kernel.words_swept") / Per, "count");
  O.add("kernel.freeze_repairs", Delta.get("kernel.freeze_repairs") / Per,
        "count");
  O.add("synth.lower_ms", S.In->LowerMs, "ms");
  reportLayers(O, "lib_opdb_infer", T, Untraced);
}

void traceMega(const Env &E, Outcome &O) {
  Rng R{E.Seed};
  std::vector<MegaCase> Pool = buildMegaPool(R);
  std::vector<double> Build;
  for (const MegaCase &C : Pool)
    Build.push_back(C.BuildMs);
  const size_t K = requestCount(E, 0.8);
  RequestCounters Delta;
  Tracer T;
  std::vector<double> Untraced;
  for (size_t I = 0; I != K; ++I) {
    MegaCase &C = Pool[I % MegaPool];
    Untraced.push_back(megaRequest(C, O));
    T.beginRequest();
    Summaries Sums;
    const int Root = T.open("request", -1);
    Delta.begin();
    const int An = T.open("engine.analyze", Root);
    analysis::SummaryEngine Engine(SerialEngine);
    support::Status Stage1 = Engine.analyze(*C.D, Sums);
    T.close(An);
    analysis::CircuitCheckResult Res = T.span("stage3.check", Root, [&] {
      return analysis::checkCircuit(*C.Circ, Sums);
    });
    Delta.end();
    T.close(Root);
    O.gate(megaVerdictMatches(Stage1, Res, C.Loop), "lib_mega_compose verdict");
    T.span("engine.keys", An, [&] {
      return analysis::SummaryEngine::computeKeys(*C.D);
    });
  }
  const double Safe = Delta.get("analysis.safe_by_sort");
  const double Needs = Delta.get("analysis.needs_check");
  O.add("stage3.check_ms", median(T.durations("stage3.check")), "ms");
  O.add("stage3.safe_by_sort_ratio",
        Safe + Needs > 0 ? Safe / (Safe + Needs) : 0.0, "ratio");
  O.add("gen.mega_build_ms", median(Build), "ms");
  reportLayers(O, "lib_mega_compose", T, Untraced);
}

/// One traced run covers all four workloads, so every per-layer metric
/// is measured on the workload whose request exercises that layer.
void runTraced(const Env &E, Outcome &O) {
  traceCli(E, O);
  traceDaemon(E, O);
  traceOpdb(E, O);
  traceMega(E, O);
}

//===-- Self-test of the correctness gate ---------------------------------===//

/// Feeds the gates answers known to be wrong and checks that each is
/// counted as a failed operation: an InjectLoop composition expected to
/// be well-connected, and a one-gate CLI verdict expected to report the
/// wrong module count. Exits 0 only if every wrong answer was caught.
int selfTest(const Env &E) {
  Outcome O;
  gen::MegaScaleParams P = *gen::megaScalePreset("ci");
  P.InjectLoop = true;
  ir::Design D;
  ir::Circuit Circ = gen::buildMegaScaleCircuit(D, P);
  Summaries Sums;
  analysis::SummaryEngine Engine(SerialEngine);
  support::Status Stage1 = Engine.analyze(D, Sums);
  analysis::CircuitCheckResult Res = analysis::checkCircuit(Circ, Sums);
  O.gate(megaVerdictMatches(Stage1, Res, /*ExpectLoop=*/false),
         "self-test: InjectLoop design expected well-connected");
  const bool RightAnswerPasses = megaVerdictMatches(Stage1, Res, true);

  const std::string Blif = "one_gate.blif";
  writeFile(Blif, OneGateBlif);
  ProcResult Cli = runProcess(cliArgv(E, Blif));
  O.gate(verdictMatches(Cli.ExitCode, Cli.Out, Expect{true, 2}),
         "self-test: one-gate design expected to have 2 modules");
  const bool CliRightPasses =
      verdictMatches(Cli.ExitCode, Cli.Out, Expect{true, 1});

  const bool Ok = O.Failed == O.Attempted && RightAnswerPasses && CliRightPasses;
  std::printf("self-test: %zu of %zu wrong expected answers counted as "
              "failed; right answers pass: %s\n",
              O.Failed, O.Attempted,
              RightAnswerPasses && CliRightPasses ? "yes" : "no");
  return Ok ? 0 : 1;
}

//===-- Driver ------------------------------------------------------------===//

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printResult(const Outcome &O) {
  std::string J = "{\"correct\": " +
                  std::string(O.Failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(O.Attempted) +
                  ", \"failed\": " + std::to_string(O.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    J += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
         jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "wsbench: %s\nusage: wsbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work DIR --tools DIR\n"
               "       wsbench --self-test --work DIR --tools DIR\n",
               Why);
  return 2;
}

} // namespace

int main(int ArgC, char **ArgV) {
  Env E;
  std::string Workload, Tools, Work;
  bool SelfTest = false, Trace = false;
  for (int I = 1; I < ArgC; ++I) {
    const std::string A = ArgV[I];
    auto value = [&]() -> std::string {
      return I + 1 < ArgC ? ArgV[++I] : "";
    };
    if (A == "--workload")
      Workload = value();
    else if (A == "--seed")
      E.Seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      E.Seconds = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    else if (A == "--trace")
      Trace = value() == "1";
    else if (A == "--work")
      Work = value();
    else if (A == "--tools")
      Tools = value();
    else if (A == "--self-test")
      SelfTest = true;
    else
      return usage(("unknown argument '" + A + "'").c_str());
  }
  if (Work.empty() || Tools.empty())
    return usage("--work and --tools are required");
  // Every file the run writes, daemon sockets included, lives in the
  // work directory; relative names keep socket paths short.
  if (::chdir(Work.c_str()) != 0)
    return usage("cannot enter the --work directory");
  E.Check = Tools + "/wiresort-check";
  E.Served = Tools + "/wiresort-served";
  ::signal(SIGPIPE, SIG_IGN);
  if (SelfTest)
    return selfTest(E);
  if (E.Seconds == 0)
    return usage("--seconds must be positive");

  static const std::map<std::string, void (*)(const Env &, Outcome &)> Runs = {
      {"cli_soc_cold", runCli},
      {"daemon_soc_edits", runDaemon},
      {"lib_opdb_infer", runOpdb},
      {"lib_mega_compose", runMega},
  };
  auto It = Runs.find(Workload);
  if (It == Runs.end())
    return usage(("unknown workload '" + Workload + "'").c_str());
  Outcome O;
  if (Trace)
    runTraced(E, O);
  else
    It->second(E, O);
  printResult(O);
  return 0;
}
