#include "realm/hw/power.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::hw {

namespace {

void validate_profile(const StimulusProfile& profile, const char* who) {
  if (profile.cycles == 0) {
    // The report divides toggle counts by the cycle count; a zero-cycle
    // profile used to produce NaN power silently.
    throw std::invalid_argument(std::string{who} + ": profile.cycles must be > 0");
  }
}

/// Stimulus states 0..cycles, port-major: states[p][c] is input port p's
/// value in cycle c.  State 0 primes (uncounted); each later state is one
/// counted cycle.
using Stimulus = std::vector<std::vector<std::uint64_t>>;

// The one stimulus stream every engine consumes, so all of them simulate
// identical inputs.  State 0 has P(1) = probability per bit; each later
// state flips every bit with the toggle rate, which keeps the stationary
// probability.  Draw order (per state, ports in order, bits LSB first) is
// pinned by Power.StimulusStreamIsPinned.
Stimulus stimulus_states(const Module& module, const StimulusProfile& profile) {
  REALM_TRACE_SCOPE("power/stimulus");
  const auto& ports = module.inputs();
  Stimulus states(ports.size(), std::vector<std::uint64_t>(profile.cycles + 1, 0));
  num::Xoshiro256 rng{profile.seed};
  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
      if (rng.uniform() < profile.probability) states[p][0] |= std::uint64_t{1} << b;
    }
  }
  for (std::uint32_t c = 1; c <= profile.cycles; ++c) {
    for (std::size_t p = 0; p < ports.size(); ++p) {
      std::uint64_t flips = 0;
      for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
        if (rng.uniform() < profile.toggle_rate) flips |= std::uint64_t{1} << b;
      }
      states[p][c] = states[p][c - 1] ^ flips;
    }
  }
  return states;
}

// Charges each counted toggle its cell's switching energy, averaged over the
// profile's cycles, and adds per-instance leakage.
PowerReport reduce_power(const Module& module, const StimulusProfile& profile,
                         const std::vector<std::uint64_t>& toggles) {
  PowerReport report;
  const auto& gates = module.gates();
  const double cycles = static_cast<double>(profile.cycles);
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const CellSpec& spec = cell_spec(gates[gi].kind);
    report.dynamic += spec.switch_energy_rel * static_cast<double>(toggles[gi]) / cycles;
    report.leakage += spec.leakage_rel;
  }
  // Leakage is a small fraction of total power at 45 nm / 1 GHz; the
  // relative weight here (~5 % for the accurate multiplier) is absorbed by
  // the calibration either way.
  report.leakage *= 0.01;
  return report;
}

/// Cycle transitions per packed-engine shard.  Fixed (never derived from the
/// thread count) so the block partition — and therefore the merged toggle
/// counts — is identical for any --threads value.
constexpr std::uint32_t kPackedBlockCycles = 1024;

// The packed path: 64 consecutive stimulus states per word, per-gate toggles
// counted with popcount over adjacent lanes.  Blocks of kPackedBlockCycles
// transitions are sharded over the persistent pool; each block primes on the
// state preceding its first transition, so the summed counts are
// bit-identical to one scalar sweep over the whole stream.
std::vector<std::uint64_t> packed_toggles(const Module& module,
                                          const StimulusProfile& profile,
                                          const Stimulus& states) {
  const std::uint32_t cycles = profile.cycles;
  const std::size_t blocks = (cycles + kPackedBlockCycles - 1) / kPackedBlockCycles;
  std::vector<std::vector<std::uint64_t>> block_toggles(blocks);
  num::ThreadPool::global().run(
      blocks, profile.threads,
      [&](std::size_t blk) {
        // Block blk covers transitions (t0, t1]; it loads state t0 as its
        // priming lane.
        REALM_TRACE_SCOPE("power/block");
        const std::uint32_t t0 = static_cast<std::uint32_t>(blk) * kPackedBlockCycles;
        const std::uint32_t t1 = std::min(cycles, t0 + kPackedBlockCycles);
        PackedSimulator sim{module};
        std::uint64_t sweeps = 0;
        for (std::uint32_t s = t0; s <= t1; ++sweeps) {
          const unsigned lanes = static_cast<unsigned>(
              std::min<std::uint32_t>(PackedSimulator::kLanes, t1 - s + 1));
          for (std::size_t p = 0; p < states.size(); ++p) {
            sim.set_input_lanes(p, states[p].data() + s, lanes);
          }
          sim.eval_cycles(lanes);
          s += lanes;
        }
        block_toggles[blk] = sim.toggle_counts();
        obs::counter_add(obs::Counter::kGateEvals, sweeps * module.gates().size());
        obs::counter_add(obs::Counter::kPackedBlocks, 1);
      });

  std::vector<std::uint64_t> toggles(module.gates().size(), 0);
  for (const auto& blk : block_toggles) {
    for (std::size_t gi = 0; gi < toggles.size(); ++gi) toggles[gi] += blk[gi];
  }
  return toggles;
}

}  // namespace

PowerReport estimate_power(const Module& module, const StimulusProfile& profile) {
  validate_profile(profile, "estimate_power");
  REALM_TRACE_SCOPE("power/sweep");
  return reduce_power(module, profile,
                      packed_toggles(module, profile, stimulus_states(module, profile)));
}

PowerReport estimate_power_reference(const Module& module,
                                     const StimulusProfile& profile) {
  validate_profile(profile, "estimate_power_reference");
  const Stimulus states = stimulus_states(module, profile);
  Simulator sim{module};
  for (std::uint32_t c = 0; c <= profile.cycles; ++c) {
    for (std::size_t p = 0; p < states.size(); ++p) sim.set_input(p, states[p][c]);
    sim.eval();
  }
  std::vector<std::uint64_t> toggles(module.gates().size());
  for (std::size_t gi = 0; gi < toggles.size(); ++gi) toggles[gi] = sim.toggles(gi);
  return reduce_power(module, profile, toggles);
}

}  // namespace realm::hw
