// Persistent process-wide worker pool for the evaluation engines.
//
// The Monte-Carlo and exhaustive error harnesses repeatedly fan out
// independent shards; spawning fresh std::threads per call (the seed
// implementation) costs ~50 us per thread and dominates short sweeps such as
// the 65-design Fig. 4 run.  This pool is created once (lazily) and reused
// for every subsequent parallel region.
//
// Determinism contract: the pool only *executes* tasks — which shard runs on
// which OS thread never influences results.  Callers that need reproducible
// output must (and in this library do) partition work and merge results by
// task index, independent of the parallelism actually achieved.

#pragma once

#include <cstddef>
#include <functional>

namespace realm::num {

class ThreadPool {
 public:
  /// Creates `workers` background threads.  The caller of run() always
  /// participates too, so a pool with W workers executes up to W+1 tasks
  /// concurrently.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept;

  /// The library's one reading of an `int threads` option: a positive value
  /// is the parallelism; 0 or a negative value means every core
  /// (workers()+1).
  [[nodiscard]] unsigned parallelism(int threads) const noexcept;

  /// Runs task(0) ... task(count-1), blocking until all complete.  At most
  /// parallelism(threads) tasks execute concurrently; the calling thread
  /// participates.  Concurrent run() calls from different threads are
  /// safe: a caller that cannot acquire the pool executes its tasks inline,
  /// which also makes nested run() calls deadlock-free.  The first exception
  /// thrown by a task is rethrown on the caller after the region completes.
  void run(std::size_t count, int threads, const std::function<void(std::size_t)>& task);

  /// The process-wide pool, lazily constructed with hardware_concurrency-1
  /// workers (so a fully parallel region matches the core count).
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace realm::num
