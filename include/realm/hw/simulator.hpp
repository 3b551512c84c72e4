// Single-pass scalar simulator with toggle counting.
//
// Because Module guarantees gates appear in topological order, evaluation is
// one linear sweep.  The simulator keeps the previous net values and counts
// output toggles per gate, which feeds the activity-based power model.
//
// This scalar sweep is the *reference* back end: bulk workloads (power
// sweeps, exhaustive equivalence) run on the 64-lane bit-parallel engine in
// packed_simulator.hpp, which is checked bit-for-bit against the simulator
// here.  Every back end evaluates gates through the one truth table,
// gate_value() in netlist.hpp.

#pragma once

#include <cstdint>
#include <vector>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

class Simulator {
 public:
  explicit Simulator(const Module& module);

  /// Drives input port `index` (in declaration order) with `value`.  Values
  /// with bits above the port width throw std::invalid_argument (they were
  /// silently truncated once, which hid stimulus-generation bugs); the same
  /// contract applies to every simulator back end, including the packed one.
  void set_input(std::size_t index, std::uint64_t value);

  /// Re-evaluates all gates against the current inputs; updates toggle
  /// counters (except on the very first evaluation, which has no
  /// predecessor state).
  void eval();

  /// Value of output port `index` (declaration order), LSB first.
  [[nodiscard]] std::uint64_t output(std::size_t index) const;

  /// Value of an arbitrary bus.
  [[nodiscard]] std::uint64_t read(const Bus& bus) const;

  /// Convenience: drive all inputs, eval, read output 0.
  [[nodiscard]] std::uint64_t run(const std::vector<std::uint64_t>& input_values);

  /// Toggle count of gate g's output since construction / reset.
  [[nodiscard]] std::uint64_t toggles(std::size_t gate_index) const;

  /// Number of eval() calls that contributed to toggle counts.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  void reset_activity();

 private:
  const Module* module_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint64_t> toggle_counts_;
  std::uint64_t cycles_ = 0;
  bool primed_ = false;
};

}  // namespace realm::hw
