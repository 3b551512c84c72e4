// Pass loop shared by the three compute workloads (table1_sweep,
// exact_band, jpeg_table2).
//
// A workload is a fixed list of units (one engine or codec call each) that
// a pass runs in order.  The runner times set-up including one warm-up pass
// that is discarded, then runs equal passes until --seconds is spent and
// reports the median of the per-pass rates, each in ops per CPU-second (on
// a virtual machine wall time also counts the time the hypervisor gave our
// vCPUs to other guests; README.md has the measurements).  A single slow
// stretch then moves one pass, not the result.  Each pass also takes the
// CPU time of its busiest thread: an engine that stops running on both of
// its threads does the same work in the same process CPU time, but its
// busiest thread then does all of it.  Every unit of every pass is
// checked against the warm-up pass's digest and against the workload's own
// checks; a unit that fails counts its ops as failed.
//
// In a traced run the passes alternate between untraced and traced (the
// wrapped kernels and the spans switched on), so the tracing overhead is
// measured on neighbouring passes of the same run.

#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace pb {

/// One unit of a pass: its ops, a digest of its output, its wall time and
/// whether its in-pass checks held.
struct Unit {
  std::uint64_t ops = 0;
  std::uint64_t digest = 0;
  std::int64_t ns = 0;
  bool ok = true;
};

class ComputeWorkload {
 public:
  ComputeWorkload() = default;
  ComputeWorkload(const ComputeWorkload&) = delete;
  ComputeWorkload& operator=(const ComputeWorkload&) = delete;
  virtual ~ComputeWorkload() = default;

  /// Builds designs and inputs and runs the set-up checks; a unit whose
  /// set-up check fails is recorded via mark_bad() and failed in every pass.
  virtual void setup(Report& report) = 0;

  /// Runs every unit once.  With `traced`, the engines get the timed
  /// wrappers and each unit records a span under `pass_span`.
  virtual std::vector<Unit> pass(bool traced, Tracer& tracer, std::int64_t pass_span) = 0;

  /// Per-layer metrics from the traced passes (whose summed wall time is
  /// `traced_wall_ns`).
  virtual void layer_metrics(Report& report, double traced_wall_ns) const = 0;

  [[nodiscard]] bool unit_ok(std::size_t i) const {
    return i >= bad_.size() || !bad_[i];
  }

 protected:
  void mark_bad(std::size_t unit) {
    if (bad_.size() <= unit) bad_.resize(unit + 1, false);
    bad_[unit] = true;
  }

 private:
  std::vector<bool> bad_;
};

/// Set-up, warm-up pass, measured passes, checks and metrics.
[[nodiscard]] Report run_compute(ComputeWorkload& w, const Options& opt, Tracer& tracer);

}  // namespace pb
