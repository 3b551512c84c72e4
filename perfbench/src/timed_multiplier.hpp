// Forwarding Multiplier that times every kernel entry of the design it wraps.
//
// The engines reach the kernels only through the virtual Multiplier
// interface (there is no dynamic_cast in the library), so handing them this
// wrapper instead of the design makes every multiply_batch,
// multiply_row_batch and multiply_row_range call visible at its boundary.
// Each call forwards to the same entry of the wrapped design, so the
// design's own devirtualized kernel still runs.
//
// Accumulation is per thread (one single-writer slot per thread, no shared
// cache line), so timing a kernel on two pool threads costs two clock reads
// per call and nothing else.  harvest() is called on the engine's calling
// thread after the engine returns, which is when every pool task of the call
// has finished.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "families.hpp"
#include "realm/multiplier.hpp"

namespace pb {

enum class Entry : unsigned { kBatch = 0, kRowBatch, kRowRange, kCount };

/// Kernel work of one engine call, summed over threads.
struct KernelTotals {
  std::array<std::int64_t, static_cast<unsigned>(Entry::kCount)> ns{};
  std::array<std::uint64_t, static_cast<unsigned>(Entry::kCount)> items{};
  std::int64_t busy_ns = 0;  ///< all entries, thread time
  unsigned threads = 0;      ///< threads that ran at least one kernel call

  /// Kernel thread time spread over the threads that ran it (at most the
  /// engine's): the part of the engine call's wall time the kernels
  /// account for.
  [[nodiscard]] double wall_ns() const {
    const auto cap = static_cast<unsigned>(kEngineThreads);
    const unsigned p = threads < cap ? threads : cap;
    return p == 0 ? 0.0 : static_cast<double>(busy_ns) / p;
  }
};

class TimedMultiplier final : public realm::Multiplier {
 public:
  explicit TimedMultiplier(const realm::Multiplier& inner) : inner_{&inner} {}

  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    return inner_->multiply(a, b);
  }
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override {
    const std::int64_t t0 = now_ns();
    inner_->multiply_batch(a, b, out, n);
    record(Entry::kBatch, t0, n);
  }
  void multiply_row_batch(std::uint64_t a_fixed, const std::uint64_t* b,
                          std::uint64_t* out, std::size_t n) const override {
    const std::int64_t t0 = now_ns();
    inner_->multiply_row_batch(a_fixed, b, out, n);
    record(Entry::kRowBatch, t0, n);
  }
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
                          std::size_t n) const override {
    const std::int64_t t0 = now_ns();
    inner_->multiply_row_range(a_fixed, b0, out, n);
    record(Entry::kRowRange, t0, n);
  }
  std::string name() const override { return inner_->name(); }
  int width() const override { return inner_->width(); }

  /// Folds every thread's slot into one total, emits one aggregated
  /// "kernel" span per thread under `parent`, and clears the slots.
  KernelTotals harvest(Tracer& tracer, std::int64_t parent) const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::int64_t>, static_cast<unsigned>(Entry::kCount)> ns{};
    std::array<std::atomic<std::uint64_t>, static_cast<unsigned>(Entry::kCount)> items{};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> first_ns{0};
    std::atomic<std::int64_t> last_ns{0};
  };

  void record(Entry e, std::int64_t t0, std::size_t n) const noexcept {
    const std::int64_t t1 = now_ns();
    Slot& s = slots_[thread_slot()];
    const auto k = static_cast<unsigned>(e);
    // Single writer per slot: plain load + store, no locked instruction.
    s.ns[k].store(s.ns[k].load(std::memory_order_relaxed) + (t1 - t0),
                  std::memory_order_relaxed);
    s.items[k].store(s.items[k].load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
    const std::uint64_t calls = s.calls.load(std::memory_order_relaxed);
    if (calls == 0) s.first_ns.store(t0, std::memory_order_relaxed);
    s.last_ns.store(t1, std::memory_order_relaxed);
    s.calls.store(calls + 1, std::memory_order_relaxed);
  }

  const realm::Multiplier* inner_;
  mutable std::array<Slot, kMaxThreads> slots_{};
};

}  // namespace pb
