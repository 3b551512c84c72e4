#include "realm/hw/simulator.hpp"

#include <stdexcept>

#include "contracts.hpp"

namespace realm::hw {

namespace {

// Drives input port `index` of `module` with `value` under input_bus()'s
// contract, calling on_change(net) for every bit whose value changes.
template <typename OnChange>
void drive_port(const Module& module, std::vector<std::uint8_t>& values,
                std::size_t index, std::uint64_t value, const char* who,
                OnChange on_change) {
  const Bus& bus = input_bus(module, index, value, who);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const auto bit = static_cast<std::uint8_t>((value >> i) & 1u);
    if (values[bus[i]] != bit) {
      values[bus[i]] = bit;
      on_change(bus[i]);
    }
  }
}

std::uint64_t read_bus(const std::vector<std::uint8_t>& values, const Bus& bus) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= static_cast<std::uint64_t>(values[bus[i]] & 1u) << i;
  }
  return v;
}

std::uint64_t read_output(const Module& module, const std::vector<std::uint8_t>& values,
                          std::size_t index, const char* who) {
  const auto& ports = module.outputs();
  if (index >= ports.size()) throw std::out_of_range(who);
  return read_bus(values, ports[index].bus);
}

}  // namespace

Simulator::Simulator(const Module& module) : module_{&module} {
  values_.assign(module.net_count(), 0);
  values_[kConst1] = 1;
  toggle_counts_.assign(module.gates().size(), 0);
}

void Simulator::set_input(std::size_t index, std::uint64_t value) {
  drive_port(*module_, values_, index, value, "Simulator::set_input", [](NetId) {});
}

void Simulator::eval() {
  // Locals, not members, in the loop: a uint8_t store may alias any member,
  // which would force a reload of each one after every gate.
  const Gate* const gates = module_->gates().data();
  const std::size_t count = module_->gates().size();
  std::uint8_t* const values = values_.data();
  std::uint64_t* const toggles = toggle_counts_.data();
  const std::size_t forced = forced_gate_;
  const std::uint8_t forced_value = forced_value_;
  const bool primed = primed_;
  for (std::size_t gi = 0; gi < count; ++gi) {
    const Gate& g = gates[gi];
    const std::uint8_t a = values[g.in[0]];
    const std::uint8_t b = values[g.in[1]];
    const std::uint8_t c = values[g.in[2]];
    const std::uint8_t out =
        gi == forced ? forced_value : gate_value(g.kind, a, b, c) & 1u;
    // Branch-free: random stimulus toggles about half the gates per sweep.
    toggles[gi] += static_cast<std::uint64_t>(primed && out != values[g.out]);
    values[g.out] = out;
  }
  if (primed_) ++cycles_;
  primed_ = true;
}

std::uint64_t Simulator::output(std::size_t index) const {
  return read_output(*module_, values_, index, "Simulator::output");
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

void Simulator::force_gate(std::size_t gate_index, bool stuck_value) {
  if (gate_index >= module_->gates().size()) {
    throw std::out_of_range("Simulator::force_gate");
  }
  forced_gate_ = gate_index;
  forced_value_ = stuck_value ? 1 : 0;
}

TimedSimulator::TimedSimulator(const Module& module) : module_{&module} {
  values_.assign(module.net_count(), 0);
  values_[kConst1] = 1;
  const auto& gates = module.gates();
  transition_counts_.assign(gates.size(), 0);
  fanout_.resize(module.net_count());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    for (const NetId in : gates[gi].in) {
      if (in != kConst0 && in != kConst1) {
        fanout_[in].push_back(static_cast<std::uint32_t>(gi));
      }
    }
  }
  // All gates start dirty: the first settle() derives the consistent state
  // from the constant rails (uncounted — priming).
  gate_marked_.assign(gates.size(), 1);
  dirty_gates_.resize(gates.size());
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    dirty_gates_[gi] = static_cast<std::uint32_t>(gi);
  }
}

void TimedSimulator::set_input(std::size_t index, std::uint64_t value) {
  drive_port(*module_, values_, index, value, "TimedSimulator::set_input",
             [this](NetId net) {
               for (const std::uint32_t gi : fanout_[net]) {
                 if (!gate_marked_[gi]) {
                   gate_marked_[gi] = 1;
                   dirty_gates_.push_back(gi);
                 }
               }
             });
}

void TimedSimulator::settle() {
  const auto& gates = module_->gates();
  const bool count = primed_;
  // Each wave is one unit of delay: every gate whose input changed in the
  // previous wave re-evaluates simultaneously.
  std::vector<std::uint32_t> wave = std::move(dirty_gates_);
  dirty_gates_.clear();
  for (const std::uint32_t gi : wave) gate_marked_[gi] = 0;

  while (!wave.empty()) {
    // Evaluate the whole wave against current values first (simultaneity),
    // then commit, so intra-wave ordering cannot leak through.
    std::vector<std::pair<std::uint32_t, std::uint8_t>> updates;
    updates.reserve(wave.size());
    for (const std::uint32_t gi : wave) {
      const Gate& g = gates[gi];
      const std::uint8_t nv =
          gate_value(g.kind, values_[g.in[0]], values_[g.in[1]], values_[g.in[2]]) & 1u;
      if (nv != values_[g.out]) updates.emplace_back(gi, nv);
    }
    std::vector<std::uint32_t> next;
    for (const auto& [gi, nv] : updates) {
      values_[gates[gi].out] = nv;
      if (count) ++transition_counts_[gi];
      for (const std::uint32_t fo : fanout_[gates[gi].out]) {
        if (!gate_marked_[fo]) {
          gate_marked_[fo] = 1;
          next.push_back(fo);
        }
      }
    }
    for (const std::uint32_t gi : next) gate_marked_[gi] = 0;
    wave = std::move(next);
  }
  if (primed_) ++cycles_;
  primed_ = true;
}

std::uint64_t TimedSimulator::output(std::size_t index) const {
  return read_output(*module_, values_, index, "TimedSimulator::output");
}

std::uint64_t TimedSimulator::transitions(std::size_t gate_index) const {
  if (gate_index >= transition_counts_.size()) {
    throw std::out_of_range("TimedSimulator::transitions");
  }
  return transition_counts_[gate_index];
}

}  // namespace realm::hw
