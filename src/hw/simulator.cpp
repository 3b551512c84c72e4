#include "realm/hw/simulator.hpp"

#include <stdexcept>

#include "contracts.hpp"

namespace realm::hw {

namespace {

std::uint64_t read_bus(const std::vector<std::uint8_t>& values, const Bus& bus) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= static_cast<std::uint64_t>(values[bus[i]] & 1u) << i;
  }
  return v;
}

}  // namespace

Simulator::Simulator(const Module& module) : module_{&module} {
  values_.assign(module.net_count(), 0);
  values_[kConst1] = 1;
  toggle_counts_.assign(module.gates().size(), 0);
}

void Simulator::set_input(std::size_t index, std::uint64_t value) {
  const Bus& bus = input_bus(*module_, index, value, "Simulator::set_input");
  for (std::size_t i = 0; i < bus.size(); ++i) {
    values_[bus[i]] = static_cast<std::uint8_t>((value >> i) & 1u);
  }
}

void Simulator::eval() {
  // Locals, not members, in the loop: a uint8_t store may alias any member,
  // which would force a reload of each one after every gate.
  const Gate* const gates = module_->gates().data();
  const std::size_t count = module_->gates().size();
  std::uint8_t* const values = values_.data();
  std::uint64_t* const toggles = toggle_counts_.data();
  const bool primed = primed_;
  for (std::size_t gi = 0; gi < count; ++gi) {
    const Gate& g = gates[gi];
    const std::uint8_t a = values[g.in[0]];
    const std::uint8_t b = values[g.in[1]];
    const std::uint8_t c = values[g.in[2]];
    const std::uint8_t out = gate_value(g.kind, a, b, c) & 1u;
    // Branch-free: random stimulus toggles about half the gates per sweep.
    toggles[gi] += static_cast<std::uint64_t>(primed && out != values[g.out]);
    values[g.out] = out;
  }
  if (primed_) ++cycles_;
  primed_ = true;
}

std::uint64_t Simulator::output(std::size_t index) const {
  const auto& ports = module_->outputs();
  if (index >= ports.size()) throw std::out_of_range("Simulator::output");
  return read_bus(values_, ports[index].bus);
}

std::uint64_t Simulator::read(const Bus& bus) const { return read_bus(values_, bus); }

std::uint64_t Simulator::run(const std::vector<std::uint64_t>& input_values) {
  if (input_values.size() != module_->inputs().size()) {
    throw std::invalid_argument("Simulator::run: input count mismatch");
  }
  for (std::size_t i = 0; i < input_values.size(); ++i) set_input(i, input_values[i]);
  eval();
  return output(0);
}

std::uint64_t Simulator::toggles(std::size_t gate_index) const {
  if (gate_index >= toggle_counts_.size()) throw std::out_of_range("Simulator::toggles");
  return toggle_counts_[gate_index];
}

void Simulator::reset_activity() {
  toggle_counts_.assign(toggle_counts_.size(), 0);
  cycles_ = 0;
  primed_ = false;
}

}  // namespace realm::hw
