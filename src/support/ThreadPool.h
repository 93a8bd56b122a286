//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the per-module analyses. The
/// paper's Stage-1 inference is embarrassingly modular (Section 5.5): a
/// summary depends only on the module body plus its sub-summaries, so
/// independent modules of the instantiation DAG can be inferred
/// concurrently. Tasks here are module-sized (microseconds to seconds), so
/// the design optimizes for simplicity and verifiable synchronization over
/// lock-free throughput: each worker owns a mutex-protected deque, pops
/// LIFO from its own deque for locality, and steals FIFO from a victim
/// when empty. submit() is safe from any thread, including from inside a
/// running task (the SummaryEngine schedules dependents exactly that way).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_THREADPOOL_H
#define WIRESORT_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace wiresort {

/// Fixed-size pool of workers with per-worker deques and work stealing.
///
/// Lifetime: workers start in the constructor and join in the destructor.
/// wait() blocks until every submitted task (including tasks submitted by
/// running tasks) has finished; the pool is reusable after wait().
class ThreadPool {
public:
  /// Upper bound on workers, so a typo such as `--workers 4000000000`
  /// cannot ask the OS for billions of threads.
  static constexpr unsigned MaxThreads = 256;

  /// Creates \p NumThreads workers, at most \ref MaxThreads; 0 picks
  /// hardware_concurrency (at least 1). A pool of size 1 still runs
  /// tasks on its single worker thread, preserving the submit/wait
  /// discipline of larger pools.
  explicit ThreadPool(unsigned NumThreads = 0) {
    if (NumThreads == 0) {
      NumThreads = std::thread::hardware_concurrency();
      if (NumThreads == 0)
        NumThreads = 1;
    }
    NumThreads = std::min(NumThreads, MaxThreads);
    Queues.resize(NumThreads);
    Workers.reserve(NumThreads);
    for (unsigned I = 0; I != NumThreads; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Task. Safe from any thread. Tasks submitted from a
  /// worker go to that worker's own deque (LIFO pop gives child-first
  /// execution, the classic work-stealing locality win); external
  /// submissions are spread round-robin.
  void submit(std::function<void()> Task) {
    size_t Target;
    int Self = currentWorker();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      ++Pending;
      Target = Self >= 0 ? static_cast<size_t>(Self)
                         : NextQueue++ % Queues.size();
      Queues[Target].push_back(std::move(Task));
    }
    WorkAvailable.notify_one();
  }

  /// Blocks until all submitted tasks have completed. Must not be called
  /// from inside a task (it would deadlock a single-threaded pool).
  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
  }

  /// Exceptions that escaped tasks since the last drain, in completion
  /// order. A throwing task on a plain std::thread would std::terminate
  /// the process; here the worker catches it, keeps serving the queue,
  /// and parks the std::exception_ptr for the owner to collect after
  /// wait() — the containment contract docs/ROBUSTNESS.md describes.
  /// (The SummaryEngine additionally catches per-module so a panic can
  /// be *attributed*; this is the backstop for everything else.)
  std::vector<std::exception_ptr> drainExceptions() {
    std::unique_lock<std::mutex> Lock(Mutex);
    return std::exchange(Escaped, {});
  }

private:
  /// Index of the calling thread within this pool, or -1 for external
  /// threads.
  int currentWorker() const {
    std::thread::id Me = std::this_thread::get_id();
    for (size_t I = 0; I != Workers.size(); ++I)
      if (Workers[I].get_id() == Me)
        return static_cast<int>(I);
    return -1;
  }

  /// Pops a task for worker \p Self: own deque back first, then steal
  /// from the front of the first non-empty victim. Caller holds Mutex.
  bool popTask(size_t Self, std::function<void()> &Out) {
    if (!Queues[Self].empty()) {
      Out = std::move(Queues[Self].back());
      Queues[Self].pop_back();
      return true;
    }
    for (size_t Off = 1; Off != Queues.size(); ++Off) {
      std::deque<std::function<void()>> &Victim =
          Queues[(Self + Off) % Queues.size()];
      if (!Victim.empty()) {
        Out = std::move(Victim.front());
        Victim.pop_front();
        return true;
      }
    }
    return false;
  }

  void workerLoop(size_t Self) {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(Lock, [&] {
          return Stopping || popTask(Self, Task);
        });
        if (!Task && Stopping)
          return;
      }
      std::exception_ptr Thrown;
      try {
        Task();
      } catch (...) {
        Thrown = std::current_exception();
      }
      Task = nullptr; // Release captures before reporting completion.
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (Thrown)
          Escaped.push_back(std::move(Thrown));
        if (--Pending == 0)
          AllDone.notify_all();
      }
    }
  }

  std::vector<std::thread> Workers;
  /// One deque per worker; all guarded by Mutex (task granularity is
  /// module-sized, so one lock is not a bottleneck and is trivially
  /// TSan-clean).
  std::vector<std::deque<std::function<void()>>> Queues;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Pending = 0;
  size_t NextQueue = 0;
  bool Stopping = false;
  /// Exceptions that escaped tasks, awaiting drainExceptions().
  std::vector<std::exception_ptr> Escaped;
};

} // namespace wiresort

#endif // WIRESORT_SUPPORT_THREADPOOL_H
