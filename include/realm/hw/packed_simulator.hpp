// 64-lane bit-parallel ("bit-sliced") gate-level simulation engine.
//
// The scalar Simulator spends one full netlist sweep per stimulus vector,
// touching a uint8_t per net.  Here every net holds a uint64_t word whose
// bit l is the net's value in lane l, so one sweep evaluates 64 independent
// stimulus vectors with native bitwise ops (mux is (c & b) | (~c & a)).
// Two workloads ride on the lanes:
//
//   * power estimation — lanes are 64 *consecutive cycles* of one stimulus
//     stream, loaded per port with set_input_lanes(); eval_cycles() counts
//     per-gate toggles between adjacent lanes with popcount(w ^ (w >> 1))
//     plus one boundary bit against the previous word, reproducing the
//     scalar simulator's toggle counts bit-for-bit (src/hw/power.cpp builds
//     the stimulus once for every engine and shards blocks of cycles over
//     the persistent pool);
//   * equivalence checking — lanes are 64 operand pairs (set_input_lanes)
//     checked against a behavioral Multiplier through multiply_batch, fast
//     enough to sweep the full 2^16 input space of an 8x8 design
//     exhaustively (below).
//
// The scalar Simulator stays as the reference back end; tests assert lane
// outputs and toggle counts are bit-identical to it.

#pragma once

#include <cstdint>
#include <vector>

#include "realm/hw/netlist.hpp"
#include "realm/multiplier.hpp"

namespace realm::hw {

class PackedSimulator {
 public:
  /// Lane count: one stimulus vector per bit of the packed word.
  static constexpr unsigned kLanes = 64;

  explicit PackedSimulator(const Module& module);

  /// Drives input port `port` with `values[l]` in lane `l` for every
  /// `l < lanes`, and with 0 in the remaining lanes (`lanes` <= 64, else
  /// std::invalid_argument).  The one lane transposition of the engine:
  /// power sweeps feed consecutive stimulus cycles through it, equivalence
  /// checks operand pairs.  Values with bits above the port width are
  /// rejected (see set_input of the scalar Simulator — same contract).
  void set_input_lanes(std::size_t port, const std::uint64_t* values, unsigned lanes);

  /// Raw access: sets the packed word of input-port bit `bit` (bit l of
  /// `word` = that input bit's value in lane l).  The fast path for callers
  /// that assemble lane words themselves.
  void set_input_word(std::size_t port, std::size_t bit, std::uint64_t word);

  /// One bitwise sweep over all gates, no toggle accounting (the
  /// equivalence workload).
  void eval();

  /// One sweep interpreting lanes 0..lanes-1 as *consecutive cycles* of one
  /// stimulus stream: per-gate toggle counters accumulate the transitions
  /// between adjacent lanes, plus the transition from the previous call's
  /// last lane (the first call primes silently, like Simulator::eval).
  void eval_cycles(unsigned lanes);

  /// Value of output port `index` in lane `lane`, LSB first.
  [[nodiscard]] std::uint64_t output(std::size_t index, unsigned lane) const;

  /// Value of an arbitrary bus in lane `lane`.
  [[nodiscard]] std::uint64_t read(const Bus& bus, unsigned lane) const;

  /// The packed word of a single net.
  [[nodiscard]] std::uint64_t word(NetId net) const;

  /// Toggle count of gate g's output accumulated by eval_cycles().
  [[nodiscard]] std::uint64_t toggles(std::size_t gate_index) const;

  /// Per-gate toggle counters (for block-merge drivers).
  [[nodiscard]] const std::vector<std::uint64_t>& toggle_counts() const noexcept {
    return toggle_counts_;
  }

  /// Number of counted cycle transitions so far.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  void reset_activity();

 private:
  template <bool kCountToggles>
  void sweep(unsigned lanes);

  const Module* module_;
  std::vector<std::uint64_t> values_;         // one 64-lane word per net
  std::vector<std::uint64_t> toggle_counts_;  // per gate
  std::vector<std::uint8_t> prev_last_lane_;  // per gate, last counted lane bit
  std::uint64_t cycles_ = 0;
  bool primed_ = false;
};

/// Circuit-vs-behavioral-model equivalence checking on the packed engine.
///
/// The module must be a two-operand design in the builders' convention
/// (input ports "a", "b"; the product on the first output port).  Operand
/// pairs are packed 64 per sweep and compared against
/// Multiplier::multiply_batch.  Work is split into fixed-size blocks whose
/// boundaries depend only on the input range, so mismatch counts and the
/// recorded examples are identical for any thread count.
struct EquivalenceMismatch {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t circuit = 0;
  std::uint64_t model = 0;
};

struct ModelEquivalence {
  std::uint64_t pairs_checked = 0;
  std::uint64_t mismatches = 0;
  /// First mismatches in operand order (at most kMaxExamples).
  std::vector<EquivalenceMismatch> examples;
  static constexpr std::size_t kMaxExamples = 8;
  [[nodiscard]] bool equivalent() const noexcept { return mismatches == 0; }
};

/// Sweeps the full cross product of both operand ranges (2^(na+nb) pairs —
/// rejected above 2^26 pairs; an 8x8 design is 2^16 = 16 sweeps).
/// `threads` = gate-simulation parallelism (0 or negative = all cores).
[[nodiscard]] ModelEquivalence check_exhaustive_vs_model(const Module& module,
                                                          const Multiplier& model,
                                                          int threads = 0);

/// Same comparison over `pairs` seeded-random operand pairs (counter-form
/// splitmix64, so the stimulus is a pure function of (seed, index)).
[[nodiscard]] ModelEquivalence check_random_vs_model(const Module& module,
                                                      const Multiplier& model,
                                                      std::uint64_t pairs,
                                                      std::uint64_t seed = 0x9acced,
                                                      int threads = 0);

}  // namespace realm::hw
