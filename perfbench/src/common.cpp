#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include <dirent.h>
#include <unistd.h>

#include "timed_multiplier.hpp"

namespace pb {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

ThreadCpu ThreadCpu::take() {
  ThreadCpu t;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("perfbench: cannot list /proc/self/task");
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const int tid = std::atoi(e->d_name);
    // The per-thread CPU clock of `tid`, encoded as pthread_getcpuclockid()
    // does (~tid << 3 | per-thread | sched).  Unlike
    // /proc/<tid>/schedstat it includes the current time slice.
    const auto clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U);
    timespec ts{};
    if (::clock_gettime(clock, &ts) != 0) continue;  // the thread has just exited
    t.ns[tid] = std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
  }
  ::closedir(dir);
  return t;
}

std::vector<std::int64_t> ThreadCpu::since(const ThreadCpu& before,
                                           const std::vector<int>& skip) const {
  std::vector<std::int64_t> out;
  for (const auto& [tid, ns] : this->ns) {
    if (std::find(skip.begin(), skip.end(), tid) != skip.end()) continue;
    const auto it = before.ns.find(tid);
    out.push_back(ns - (it == before.ns.end() ? 0 : it->second));
  }
  return out;
}

int thread_id() noexcept { return static_cast<int>(::gettid()); }

Counters Counters::take() noexcept {
  Counters c;
  for (unsigned i = 0; i < realm::obs::kCounterCount; ++i) {
    c.v[i] = realm::obs::counter_value(static_cast<realm::obs::Counter>(i));
  }
  return c;
}

void Counters::add_delta(const Counters& before, const Counters& after) noexcept {
  for (unsigned i = 0; i < realm::obs::kCounterCount; ++i) {
    v[i] += after.v[i] - before.v[i];
  }
}

unsigned thread_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxThreads) throw std::runtime_error("perfbench: too many threads");
  return slot;
}

std::int64_t Tracer::open(const char* name, std::int64_t parent, std::uint64_t key) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = parent;
  s.key = key;
  s.thread = thread_slot();
  return add(s);
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard lock{mu_};
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Tracer::add(const Span& s) {
  if (!enabled_) return -1;
  std::lock_guard lock{mu_};
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock{mu_};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"key\":%llu,\"count\":%llu,\"busy_ns\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.key),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.busy_ns));
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("perfbench: cannot write " + path);
}

KernelTotals TimedMultiplier::harvest(Tracer& tracer, std::int64_t parent) const {
  KernelTotals t;
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    Slot& s = slots_[i];
    const std::uint64_t calls = s.calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    ++t.threads;
    std::int64_t busy = 0;
    for (unsigned k = 0; k < static_cast<unsigned>(Entry::kCount); ++k) {
      const std::int64_t ns = s.ns[k].exchange(0, std::memory_order_relaxed);
      t.ns[k] += ns;
      t.items[k] += s.items[k].exchange(0, std::memory_order_relaxed);
      busy += ns;
    }
    t.busy_ns += busy;
    Tracer::Span span;
    span.name = "kernel";
    span.start_ns = s.first_ns.load(std::memory_order_relaxed);
    span.end_ns = s.last_ns.load(std::memory_order_relaxed);
    span.parent = parent;
    span.thread = i;
    span.count = calls;
    span.busy_ns = busy;
    tracer.add(span);
    s.calls.store(0, std::memory_order_relaxed);
  }
  return t;
}

}  // namespace pb
