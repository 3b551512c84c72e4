// Activity-based power estimation.
//
// Mirrors the paper's setup (§IV-B): inputs annotated with a 25 % toggle
// rate and 50 % static probability at 1 GHz.  We drive the netlist with a
// random stimulus of exactly that profile, count real toggles at every gate
// output with the simulator, and charge each toggle its cell's switching
// energy.  Leakage is added per instance.  Absolute units are fixed by the
// cost model's calibration against the paper's accurate multiplier.

#pragma once

#include <cstdint>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

struct PowerReport {
  double dynamic = 0.0;  ///< relative units until calibrated
  double leakage = 0.0;
  [[nodiscard]] double total() const noexcept { return dynamic + leakage; }
};

struct StimulusProfile {
  double toggle_rate = 0.25;   ///< per-bit probability of flipping each cycle
  double probability = 0.5;    ///< stationary P(bit = 1)
  std::uint32_t cycles = 2000; ///< simulated vector pairs (must be > 0)
  std::uint64_t seed = 0x9a7e5eedULL;
  /// Gate-simulation parallelism of the packed engine (0 or negative = all
  /// cores).  The cycle stream is sharded into fixed-size blocks whose
  /// partition never depends on this value, so the report is bit-identical
  /// for any setting.
  int threads = 0;
};

/// Simulates `module` under the stimulus profile and returns its
/// (uncalibrated) power estimate from functional (zero-delay) toggles.  It
/// runs on the 64-lane packed engine (hw/packed_simulator.hpp) with the
/// cycle stream sharded over the persistent thread pool.  Throws
/// std::invalid_argument for a zero-cycle profile.
[[nodiscard]] PowerReport estimate_power(const Module& module,
                                         const StimulusProfile& profile = {});

/// The pre-packed scalar implementation (one Simulator::eval per cycle),
/// kept as the bit-exact cross-check reference: estimate_power must return
/// the identical report for any thread count.
[[nodiscard]] PowerReport estimate_power_reference(const Module& module,
                                                   const StimulusProfile& profile = {});

}  // namespace realm::hw
