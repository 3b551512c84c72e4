#include "realm/hw/netlist.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace realm::hw {
namespace {

bool is_const(NetId n) { return n == kConst0 || n == kConst1; }

// Output of a 1- or 2-input cell for one-bit pin values, from its truth table.
unsigned cell_bit(GateKind kind, unsigned a, unsigned b) {
  return gate_value(kind, a, b, 0u) & 1u;
}

}  // namespace

Module::Module(std::string name) : name_{std::move(name)} {}

NetId Module::new_net() { return next_net_++; }

Bus Module::add_input(const std::string& port, int width) {
  if (width < 1) throw std::invalid_argument("Module::add_input: width >= 1");
  Bus bus;
  bus.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bus.push_back(new_net());
  }
  inputs_.push_back({port, bus});
  return bus;
}

void Module::add_output(const std::string& port, const Bus& bus) {
  for (const NetId n : bus) {
    if (n >= next_net_) throw std::invalid_argument("Module::add_output: unknown net");
  }
  outputs_.push_back({port, bus});
}

Bus Module::constant(std::uint64_t value, int width) const {
  if (width < 0 || width > 64) throw std::invalid_argument("Module::constant: width");
  Bus bus(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) bus[static_cast<std::size_t>(i)] =
      ((value >> i) & 1u) ? kConst1 : kConst0;
  return bus;
}

NetId Module::gate(GateKind kind, NetId a, NetId b, NetId c) {
  if (a >= next_net_ || b >= next_net_ || c >= next_net_) {
    throw std::invalid_argument("Module::gate: operand net does not exist yet");
  }

  // Constant folding / algebraic simplification.  Only identities that a
  // synthesis tool applies unconditionally; no sharing analysis.
  const int fanin = cell_spec(kind).fanin;
  if (kind == GateKind::kMux2) {
    // (d0=a, d1=b, sel=c)
    if (c == kConst0) return a;
    if (c == kConst1) return b;
    if (a == b) return a;
    if (a == kConst0 && b == kConst1) return c;
    if (a == kConst1 && b == kConst0) return inv(c);
    // mux(s, 0, d1) = and(s, d1), mux(s, d0, 1) = or(s, d0), and mirrors.
    if (a == kConst0) return and2(c, b);
    if (b == kConst0) return and2(inv(c), a);
    if (a == kConst1) return or2(inv(c), b);
    if (b == kConst1) return or2(c, a);
  } else if (fanin == 1 ? is_const(a)
                        : fanin == 2 && (is_const(a) || is_const(b) || a == b)) {
    // The pins carry at most one non-constant net x, so the cell's truth
    // table restricted to x is a rail, x, or ~x.  Wider cells are not folded.
    const NetId x = is_const(a) ? b : a;
    const auto f = [&](unsigned xv) {
      const auto pin = [&](NetId n) { return is_const(n) ? unsigned{n == kConst1} : xv; };
      return cell_bit(kind, pin(a), pin(b));
    };
    if (f(0) == f(1)) return f(0) != 0 ? kConst1 : kConst0;
    return f(1) != 0 ? x : inv(x);
  }

  // Canonicalize commutative operand order so strash catches both forms.
  const bool commutative = fanin == 2 && cell_bit(kind, 0, 1) == cell_bit(kind, 1, 0);
  if (commutative && a > b) std::swap(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(kind) << 60) |
                            (static_cast<std::uint64_t>(a) << 40) |
                            (static_cast<std::uint64_t>(b) << 20) |
                            static_cast<std::uint64_t>(c);
  if (const auto it = strash_.find(key); it != strash_.end()) return it->second;

  const NetId out = new_net();
  gates_.push_back({kind, {a, b, c}, out});
  strash_.emplace(key, out);
  return out;
}

std::size_t Module::prune() {
  std::vector<std::uint8_t> live(next_net_, 0);
  live[kConst0] = live[kConst1] = 1;
  for (const auto& p : outputs_) {
    for (const NetId n : p.bus) live[n] = 1;
  }
  // Gates are topologically ordered, so one reverse sweep marks the cone.
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    if (live[it->out]) {
      live[it->in[0]] = live[it->in[1]] = live[it->in[2]] = 1;
    }
  }
  const std::size_t before = gates_.size();
  std::erase_if(gates_, [&](const Gate& g) { return !live[g.out]; });
  // Sharing hits on pruned gates would resurrect dangling nets; pruning is a
  // terminal step, so drop the hash state.
  strash_.clear();
  return before - gates_.size();
}

double Module::area_um2() const noexcept {
  double area = 0.0;
  for (const auto& g : gates_) area += cell_spec(g.kind).area_um2;
  return area;
}

std::array<std::uint32_t, kGateKindCount> Module::gate_histogram() const noexcept {
  std::array<std::uint32_t, kGateKindCount> hist{};
  for (const auto& g : gates_) ++hist[static_cast<std::size_t>(g.kind)];
  return hist;
}

}  // namespace realm::hw
