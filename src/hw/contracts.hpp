// Argument contracts shared by the gate-level drivers in src/hw, so each
// rule is stated (and worded) once.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

/// The bus of input port `port`, after checking the input-drive contract of
/// every simulator back end: a port out of range throws std::out_of_range,
/// and `value_bits` (the OR of every value about to be driven) with a bit
/// above the port width throws std::invalid_argument.  Values are rejected,
/// never truncated — truncation hides operand-generation bugs.
inline const Bus& input_bus(const Module& module, std::size_t port,
                            std::uint64_t value_bits, const char* who) {
  const auto& ports = module.inputs();
  if (port >= ports.size()) throw std::out_of_range(who);
  const Bus& bus = ports[port].bus;
  if (bus.size() < 64 && (value_bits >> bus.size()) != 0) {
    throw std::invalid_argument(std::string{who} + ": value exceeds port width");
  }
  return bus;
}

}  // namespace realm::hw
