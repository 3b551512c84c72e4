#include "realm/numeric/thread_pool.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/obs/trace.hpp"

namespace realm::num {

namespace {

// REALM_OBS_TEST_SLOWDOWN=<us>: sleeps that long after every task, inline or
// pooled.  CI's regression gate sets it to fake a hot-path regression and
// asserts `check_bench_schema.py --diff` catches it; unset (the only state
// outside that job) costs one cached-load branch per task.
std::uint64_t test_slowdown_us() noexcept {
  static const std::uint64_t v = [] {
    const char* s = std::getenv("REALM_OBS_TEST_SLOWDOWN");
    if (s == nullptr || *s == '\0') return std::uint64_t{0};
    char* end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    return end != nullptr && *end == '\0' ? std::uint64_t{n} : std::uint64_t{0};
  }();
  return v;
}

inline void maybe_inject_test_slowdown() {
  if (const std::uint64_t us = test_slowdown_us(); us != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds{us});
  }
}

}  // namespace

struct ThreadPool::Impl {
  // One "region" at a time: run() serializes callers via region_mutex_ (with
  // try_lock fallback to inline execution, see run()).  Workers claim task
  // indices from the shared atomic cursor, so load balancing is dynamic and
  // no per-task queue allocation is needed.
  std::mutex m;
  std::condition_variable work_ready;
  std::condition_variable region_done;
  std::vector<std::thread> threads;

  std::mutex region_mutex;  // serializes concurrent run() callers

  // Current region.  run() writes these fields under m before it bumps
  // generation, and a worker reads them only after it has seen the new
  // generation under m.  drain() then reads count and task without m: run()
  // rewrites them only after every helper has left the region (active == 0).
  std::uint64_t generation = 0;
  std::size_t count = 0;
  unsigned helpers_wanted = 0;
  const std::function<void(std::size_t)>* task = nullptr;
  std::atomic<std::size_t> cursor{0};
  unsigned active = 0;
  std::uint64_t region_start_ns = 0;  // publish time, for queue-wait telemetry
  std::uint64_t region_trace_rid = 0;  // caller's request id, adopted by helpers
  std::exception_ptr first_error;
  bool stop = false;

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock lock{m};
    for (;;) {
      work_ready.wait(lock, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      if (helpers_wanted == 0) continue;  // region already fully staffed
      --helpers_wanted;
      ++active;
      obs::gauge_set(obs::Gauge::kPoolActiveWorkers, active);
      // Dispatch latency: time from the caller publishing the region to this
      // worker starting on it (still under m, so region_start_ns is stable).
      // The histogram carries the distribution (p50/p95/p99 of worker
      // wake-up); the summed counter stays as its backward-compatible total.
      const std::uint64_t wait_ns = obs::now_ns() - region_start_ns;
      obs::counter_add(obs::Counter::kPoolQueueWaitNs, wait_ns);
      obs::value_hist_record(obs::ValueHist::kPoolQueueWaitNs, wait_ns);
      const std::uint64_t rid = region_trace_rid;  // stable while m is held
      lock.unlock();
      {
        // Helpers adopt the publishing caller's trace context so pool/task
        // spans inside a served request carry its request id.
        obs::ScopedTraceContext ctx{rid};
        drain();
      }
      lock.lock();
      --active;
      obs::gauge_set(obs::Gauge::kPoolActiveWorkers, active);
      if (active == 0) region_done.notify_all();
    }
  }

  // Claims and runs tasks until the region is exhausted.  Called without
  // holding m.
  void drain() {
    const std::size_t n = count;
    const auto* fn = task;
    std::uint64_t executed = 0;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      // Occupancy gauge for the sampler: tasks are block-granularity, so one
      // relaxed store per claim is noise next to the work itself.
      obs::gauge_set(obs::Gauge::kPoolQueueDepth,
                     n - i > 1 ? static_cast<std::uint64_t>(n - i - 1) : 0);
      ++executed;
      REALM_TRACE_SCOPE("pool/task");
      maybe_inject_test_slowdown();
      try {
        (*fn)(i);
      } catch (...) {
        obs::counter_add(obs::Counter::kPoolTasksFailed, 1);
        std::lock_guard lock{m};
        // Only the first exception propagates to the caller; any further one
        // is swallowed here.  That silent-loss path has hidden bugs inside
        // instrumented regions before, so debug builds make it loud.
        assert(first_error == nullptr &&
               "ThreadPool task threw while another failure was already "
               "pending; this exception would be silently swallowed");
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (executed != 0) {
      obs::counter_add(obs::Counter::kPoolTasksExecuted, executed);
    }
  }
};

ThreadPool::ThreadPool(unsigned workers) : impl_{new Impl} {
  impl_->threads.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
  obs::gauge_set(obs::Gauge::kPoolWorkers, workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{impl_->m};
    impl_->stop = true;
  }
  impl_->work_ready.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

unsigned ThreadPool::workers() const noexcept {
  return static_cast<unsigned>(impl_->threads.size());
}

unsigned ThreadPool::parallelism(int threads) const noexcept {
  return threads > 0 ? static_cast<unsigned>(threads) : workers() + 1;
}

void ThreadPool::run(std::size_t count, int threads,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  const unsigned parallelism = this->parallelism(threads);

  // Inline paths: nothing to parallelize, or the pool is busy serving
  // another caller (including a task on this pool calling run() again —
  // running inline keeps that deadlock-free).
  std::unique_lock region{impl_->region_mutex, std::try_to_lock};
  if (parallelism <= 1 || count <= 1 || workers() == 0 || !region.owns_lock()) {
    // The contention fallback (a parallel request degraded to serial because
    // the pool was busy) used to be invisible; count it so saturated nests
    // show up in the bench counters.
    if (!region.owns_lock() && parallelism > 1 && count > 1 && workers() != 0) {
      obs::counter_add(obs::Counter::kPoolTasksInline, count);
    }
    for (std::size_t i = 0; i < count; ++i) {
      REALM_TRACE_SCOPE("pool/task");
      maybe_inject_test_slowdown();
      task(i);
    }
    obs::counter_add(obs::Counter::kPoolTasksExecuted, count);
    return;
  }

  obs::counter_add(obs::Counter::kPoolRegions, 1);
  {
    std::lock_guard lock{impl_->m};
    impl_->count = count;
    impl_->task = &task;
    impl_->cursor.store(0, std::memory_order_relaxed);
    impl_->first_error = nullptr;
    const auto max_helpers = static_cast<unsigned>(impl_->threads.size());
    impl_->helpers_wanted = std::min(parallelism - 1, max_helpers);
    impl_->region_start_ns = obs::now_ns();
    impl_->region_trace_rid = obs::current_trace_rid();
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();

  impl_->drain();  // the caller is a full participant

  std::unique_lock lock{impl_->m};
  impl_->region_done.wait(lock, [&] { return impl_->active == 0; });
  impl_->helpers_wanted = 0;  // late wakers must not join a finished region
  impl_->task = nullptr;
  if (impl_->first_error) std::rethrow_exception(impl_->first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{[] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }()};
  return pool;
}

}  // namespace realm::num
