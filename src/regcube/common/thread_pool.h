#ifndef REGCUBE_COMMON_THREAD_POOL_H_
#define REGCUBE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace regcube {

/// A fixed-size worker pool for the read side of the engine: per-shard
/// snapshot gathering and per-cuboid cubing fan out across it. Tasks must
/// not throw (the library is no-exceptions; invariant violations abort via
/// RC_CHECK).
///
/// ParallelFor is the workhorse and is safe to call from any thread,
/// including a pool worker (the caller always participates in draining the
/// items, so nested or reentrant calls cannot deadlock even when every
/// worker is busy). Work is claimed item-by-item from an atomic counter, so
/// callers that need deterministic results must write outputs to
/// caller-owned slots indexed by the item — every use in this codebase does.
class ThreadPool {
 public:
  /// Sizes the pool at `num_threads` workers; <= 0 selects the hardware
  /// concurrency. Workers are spawned lazily on first use, so a pool that
  /// is never exercised (e.g. owned by a write-only engine) holds no OS
  /// threads.
  explicit ThreadPool(int num_threads = 0);

  /// Outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return width_; }

  /// Enqueues one fire-and-forget task.
  void Run(std::function<void()> task);

  /// Runs body(i) for every i in [0, n), blocking until all complete. The
  /// calling thread participates, so progress is guaranteed even when the
  /// pool is saturated or the caller is itself a pool worker.
  void ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t)>& body);

 private:
  void EnsureStarted();
  void WorkerLoop();

  int width_ = 1;
  std::once_flag start_once_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [0, n): fanned out on `pool` when there is
/// one wide enough to help, otherwise inline on the caller. A template
/// rather than a std::function so the serial path (no pool, or one item)
/// compiles to a plain loop.
template <typename Body>
void ParallelForOrSerial(ThreadPool* pool, std::int64_t n, Body&& body) {
  if (pool != nullptr && pool->num_threads() > 1 && n > 1) {
    pool->ParallelFor(n, body);
  } else {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace regcube

#endif  // REGCUBE_COMMON_THREAD_POOL_H_
