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

void validate_profile(const Module& module, const StimulusProfile& profile,
                      const char* who) {
  if (module.is_sequential()) {
    throw std::invalid_argument(std::string{who} + ": combinational modules only");
  }
  if (profile.cycles == 0) {
    // The report divides toggle counts by the cycle count; a zero-cycle
    // profile used to produce NaN power silently.
    throw std::invalid_argument(std::string{who} + ": profile.cycles must be > 0");
  }
}

// Shared stimulus loop over either scalar simulator back end.
template <typename Sim, typename Step, typename Counts>
PowerReport run_stimulus(const Module& module, const StimulusProfile& profile,
                         Sim& sim, Step step, Counts counts) {
  num::Xoshiro256 rng{profile.seed};

  // Build the initial vector with P(1) = probability, then evolve each bit
  // with the requested toggle rate (this keeps the stationary probability).
  const auto& ports = module.inputs();
  std::vector<std::uint64_t> state(ports.size(), 0);
  for (std::size_t p = 0; p < ports.size(); ++p) {
    for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
      if (rng.uniform() < profile.probability) state[p] |= std::uint64_t{1} << b;
    }
    sim.set_input(p, state[p]);
  }
  step();  // primes previous-state without counting

  for (std::uint32_t cycle = 0; cycle < profile.cycles; ++cycle) {
    for (std::size_t p = 0; p < ports.size(); ++p) {
      std::uint64_t flips = 0;
      for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
        if (rng.uniform() < profile.toggle_rate) flips |= std::uint64_t{1} << b;
      }
      state[p] ^= flips;
      sim.set_input(p, state[p]);
    }
    step();
  }

  PowerReport report;
  const auto& gates = module.gates();
  const double cycles = static_cast<double>(sim.cycles());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const CellSpec& spec = cell_spec(gates[gi].kind);
    report.dynamic += spec.switch_energy_rel * static_cast<double>(counts(gi)) / cycles;
    report.leakage += spec.leakage_rel;
  }
  return report;
}

/// Cycle transitions per packed-engine shard.  Fixed (never derived from the
/// thread count) so the block partition — and therefore the merged toggle
/// counts — is identical for any --threads value.
constexpr std::uint32_t kPackedBlockCycles = 1024;

// The packed path: regenerate the exact stimulus stream of run_stimulus
// (same RNG consumption order), pack 64 consecutive cycle states per word,
// and count per-gate toggles with popcount over adjacent lanes.  Blocks of
// kPackedBlockCycles transitions are sharded over the persistent pool; each
// block primes on the state preceding its first transition, so the summed
// counts are bit-identical to one scalar sweep over the whole stream.
PowerReport estimate_power_packed(const Module& module, const StimulusProfile& profile) {
  REALM_TRACE_SCOPE("power/sweep");
  const auto& ports = module.inputs();
  const std::uint32_t cycles = profile.cycles;

  // States 0..cycles inclusive (state 0 is the scalar path's priming vector).
  std::vector<std::vector<std::uint64_t>> states(
      cycles + 1, std::vector<std::uint64_t>(ports.size(), 0));
  {
    REALM_TRACE_SCOPE("power/stimulus");
    num::Xoshiro256 rng{profile.seed};
    for (std::size_t p = 0; p < ports.size(); ++p) {
      for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
        if (rng.uniform() < profile.probability) states[0][p] |= std::uint64_t{1} << b;
      }
    }
    for (std::uint32_t c = 1; c <= cycles; ++c) {
      for (std::size_t p = 0; p < ports.size(); ++p) {
        std::uint64_t flips = 0;
        for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
          if (rng.uniform() < profile.toggle_rate) flips |= std::uint64_t{1} << b;
        }
        states[c][p] = states[c - 1][p] ^ flips;
      }
    }
  }

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
        std::uint32_t s = t0;
        while (s <= t1) {
          const unsigned lanes = static_cast<unsigned>(
              std::min<std::uint32_t>(PackedSimulator::kLanes, t1 - s + 1));
          for (std::size_t p = 0; p < ports.size(); ++p) {
            for (std::size_t b = 0; b < ports[p].bus.size(); ++b) {
              std::uint64_t word = 0;
              for (unsigned l = 0; l < lanes; ++l) {
                word |= ((states[s + l][p] >> b) & 1u) << l;
              }
              sim.set_input_word(p, b, word);
            }
          }
          sim.eval_cycles(lanes);
          ++sweeps;
          s += lanes;
        }
        block_toggles[blk] = sim.toggle_counts();
        obs::counter_add(obs::Counter::kGateEvals, sweeps * module.gates().size());
        obs::counter_add(obs::Counter::kPackedBlocks, 1);
      });

  PowerReport report;
  const auto& gates = module.gates();
  const double dcycles = static_cast<double>(cycles);
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    std::uint64_t count = 0;
    for (const auto& blk : block_toggles) count += blk[gi];
    const CellSpec& spec = cell_spec(gates[gi].kind);
    report.dynamic += spec.switch_energy_rel * static_cast<double>(count) / dcycles;
    report.leakage += spec.leakage_rel;
  }
  return report;
}

}  // namespace

PowerReport estimate_power(const Module& module, const StimulusProfile& profile) {
  validate_profile(module, profile, "estimate_power");
  PowerReport report;
  if (profile.count_glitches) {
    // Glitch counting needs per-event wave propagation; it stays on the
    // scalar unit-delay simulator.
    TimedSimulator sim{module};
    report = run_stimulus(module, profile, sim, [&] { sim.settle(); },
                          [&](std::size_t gi) { return sim.transitions(gi); });
  } else {
    report = estimate_power_packed(module, profile);
  }
  // Leakage is a small fraction of total power at 45 nm / 1 GHz; the
  // relative weight here (~5 % for the accurate multiplier) is absorbed by
  // the calibration either way.
  report.leakage *= 0.01;
  return report;
}

PowerReport estimate_power_reference(const Module& module,
                                     const StimulusProfile& profile) {
  validate_profile(module, profile, "estimate_power_reference");
  PowerReport report;
  if (profile.count_glitches) {
    TimedSimulator sim{module};
    report = run_stimulus(module, profile, sim, [&] { sim.settle(); },
                          [&](std::size_t gi) { return sim.transitions(gi); });
  } else {
    Simulator sim{module};
    report = run_stimulus(module, profile, sim, [&] { sim.eval(); },
                          [&](std::size_t gi) { return sim.toggles(gi); });
  }
  report.leakage *= 0.01;
  return report;
}

}  // namespace realm::hw
