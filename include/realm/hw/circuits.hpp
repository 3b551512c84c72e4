// Gate-level circuits for every design of Table I.
//
// build_circuit() parses a spec against mult::parse_spec()'s table, which
// mult::make_multiplier() reads too, constructs the design's behavioral
// model so that the model's width rules apply, and calls the family's
// builder; model and netlist accept the same (spec, n).  Each circuit is a
// combinational Module with input ports "a", "b" (N bits each) and output
// port "p".  The netlists are simulated (hw/simulator.hpp) to cross-validate
// against the behavioral models bit-for-bit, costed for area (netlist.hpp)
// and power (power.hpp), and can be emitted as structural Verilog
// (verilog.hpp).

#pragma once

#include <string>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

/// Exact Wallace-tree multiplier — the paper's accurate reference design.
[[nodiscard]] Module build_accurate(int n);

/// Exact array multiplier (row-by-row ripple accumulation) — smaller cells,
/// much longer critical path; an architecture ablation for the reference.
[[nodiscard]] Module build_accurate_array(int n);

/// Exact radix-4 Booth-recoded multiplier with Wallace reduction — halves
/// the partial-product count, the common high-performance choice.
[[nodiscard]] Module build_accurate_booth(int n);

/// The netlist of the design `spec` names, for n-bit operands, pruned (dead
/// gates removed).  Throws std::invalid_argument exactly when
/// mult::make_multiplier(spec, n) does.
[[nodiscard]] Module build_circuit(const std::string& spec, int n = 16);

/// Same without the final prune (for netlist-construction tests).
[[nodiscard]] Module build_circuit_unpruned(const std::string& spec, int n = 16);

}  // namespace realm::hw
