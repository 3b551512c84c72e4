#include "realm/hw/bdd.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>

namespace realm::hw {
namespace {

std::uint64_t pack3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  // 21 bits each is plenty below the node limit; guard anyway.
  return (a << 42) | (b << 21) | c;
}

// The function of gate g as a Shannon expansion over its first `pins_left`
// pins, the last of them outermost, with the cell's truth table at the
// leaves; bit i of `assigned` is the value chosen for pin i.  For the mux
// this is ite(sel, d1, d0).
BddManager::Ref cell_bdd(BddManager& mgr, const Gate& g,
                         const std::vector<BddManager::Ref>& net_fn, int pins_left,
                         unsigned assigned) {
  if (pins_left == 0) {
    const unsigned v = gate_value(g.kind, assigned & 1u, (assigned >> 1) & 1u,
                                  (assigned >> 2) & 1u);
    return (v & 1u) != 0 ? BddManager::kTrue : BddManager::kFalse;
  }
  const int p = pins_left - 1;
  const BddManager::Ref hi = cell_bdd(mgr, g, net_fn, p, assigned | (1u << p));
  const BddManager::Ref lo = cell_bdd(mgr, g, net_fn, p, assigned);
  return mgr.ite(net_fn[g.in[static_cast<std::size_t>(p)]], hi, lo);
}

}  // namespace

BddManager::BddManager(std::size_t node_limit) : node_limit_{node_limit} {
  nodes_.push_back({INT_MAX, kFalse, kFalse});  // 0 = false terminal
  nodes_.push_back({INT_MAX, kTrue, kTrue});    // 1 = true terminal
}

BddManager::Ref BddManager::make(int var, Ref lo, Ref hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::uint64_t key = pack3(static_cast<std::uint64_t>(var), lo, hi);
  if (const auto it = unique_.find(key); it != unique_.end()) return it->second;
  if (nodes_.size() >= node_limit_ || nodes_.size() >= (1u << 21)) {
    throw std::runtime_error("BDD node limit exceeded");
  }
  const auto ref = static_cast<Ref>(nodes_.size());
  nodes_.push_back({var, lo, hi});
  unique_.emplace(key, ref);
  return ref;
}

BddManager::Ref BddManager::var(int index) {
  if (index < 0 || index >= (1 << 20)) throw std::invalid_argument("BddManager::var");
  return make(index, kFalse, kTrue);
}

BddManager::Ref BddManager::ite(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::uint64_t key = pack3(f, g, h);
  if (const auto it = ite_memo_.find(key); it != ite_memo_.end()) return it->second;

  const int top = std::min({var_of(f), var_of(g), var_of(h)});
  const auto cofactor = [&](Ref r, bool positive) {
    return var_of(r) == top ? (positive ? nodes_[r].hi : nodes_[r].lo) : r;
  };
  const Ref hi = ite(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const Ref lo = ite(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const Ref result = make(top, lo, hi);
  ite_memo_.emplace(key, result);
  return result;
}

bool BddManager::eval(Ref f, const std::vector<bool>& assignment) const {
  while (f > kTrue) {
    const Node& n = nodes_[f];
    const bool v = n.var < static_cast<int>(assignment.size()) &&
                   assignment[static_cast<std::size_t>(n.var)];
    f = v ? n.hi : n.lo;
  }
  return f == kTrue;
}

std::uint64_t BddManager::count_sat(Ref f, int num_vars) const {
  // counts[ref] = satisfying assignments over variables [var_of(ref), num_vars).
  std::unordered_map<Ref, double> memo;
  const auto weight = [&](auto&& self, Ref r) -> double {
    if (r == kFalse) return 0.0;
    if (r == kTrue) return 1.0;
    if (const auto it = memo.find(r); it != memo.end()) return it->second;
    const Node& n = nodes_[r];
    const int skip_lo = (nodes_[n.lo].var == INT_MAX ? num_vars : nodes_[n.lo].var) -
                        n.var - 1;
    const int skip_hi = (nodes_[n.hi].var == INT_MAX ? num_vars : nodes_[n.hi].var) -
                        n.var - 1;
    const double v = std::ldexp(self(self, n.lo), skip_lo) +
                     std::ldexp(self(self, n.hi), skip_hi);
    memo.emplace(r, v);
    return v;
  };
  const int top = var_of(f) == INT_MAX ? num_vars : var_of(f);
  return static_cast<std::uint64_t>(std::ldexp(weight(weight, f), top));
}

std::optional<std::vector<bool>> BddManager::any_sat(Ref f, int num_vars) const {
  if (f == kFalse) return std::nullopt;
  std::vector<bool> assignment(static_cast<std::size_t>(num_vars), false);
  while (f > kTrue) {
    const Node& n = nodes_[f];
    if (n.hi != kFalse) {
      assignment[static_cast<std::size_t>(n.var)] = true;
      f = n.hi;
    } else {
      f = n.lo;
    }
  }
  return assignment;
}

ModuleBdds build_bdds(BddManager& mgr, const Module& module) {
  ModuleBdds out;
  // Interleaved variable order across input ports.
  out.var_of_input.resize(module.inputs().size());
  std::size_t max_width = 0;
  for (std::size_t p = 0; p < module.inputs().size(); ++p) {
    out.var_of_input[p].assign(module.inputs()[p].bus.size(), -1);
    max_width = std::max(max_width, module.inputs()[p].bus.size());
  }
  std::vector<BddManager::Ref> net_fn(module.net_count(), BddManager::kFalse);
  net_fn[kConst1] = BddManager::kTrue;
  int next_var = 0;
  for (std::size_t bit = 0; bit < max_width; ++bit) {
    for (std::size_t p = 0; p < module.inputs().size(); ++p) {
      const Bus& bus = module.inputs()[p].bus;
      if (bit < bus.size()) {
        out.var_of_input[p][bit] = next_var;
        net_fn[bus[bit]] = mgr.var(next_var++);
      }
    }
  }
  out.num_vars = next_var;

  for (const Gate& g : module.gates()) {
    net_fn[g.out] = cell_bdd(mgr, g, net_fn, cell_spec(g.kind).fanin, 0);
  }

  for (const auto& port : module.outputs()) {
    std::vector<BddManager::Ref> bits(port.bus.size());
    for (std::size_t i = 0; i < port.bus.size(); ++i) bits[i] = net_fn[port.bus[i]];
    out.outputs.push_back(std::move(bits));
  }
  return out;
}

EquivalenceResult check_equivalence(const Module& a, const Module& b,
                                    std::size_t node_limit) {
  if (a.inputs().size() != b.inputs().size()) {
    throw std::invalid_argument("check_equivalence: input port count differs");
  }
  for (std::size_t p = 0; p < a.inputs().size(); ++p) {
    if (a.inputs()[p].bus.size() != b.inputs()[p].bus.size()) {
      throw std::invalid_argument("check_equivalence: input width differs on port '" +
                                  a.inputs()[p].name + "'");
    }
  }
  if (a.outputs().size() != b.outputs().size()) {
    throw std::invalid_argument("check_equivalence: output port count differs");
  }

  BddManager mgr{node_limit};
  const ModuleBdds fa = build_bdds(mgr, a);
  const ModuleBdds fb = build_bdds(mgr, b);  // same manager, same var order

  BddManager::Ref diff = BddManager::kFalse;
  for (std::size_t port = 0; port < fa.outputs.size(); ++port) {
    const auto& bits_a = fa.outputs[port];
    const auto& bits_b = fb.outputs[port];
    const std::size_t common = std::min(bits_a.size(), bits_b.size());
    for (std::size_t i = 0; i < common; ++i) {
      diff = mgr.bdd_or(diff, mgr.bdd_xor(bits_a[i], bits_b[i]));
    }
    // Extra bits of the wider bus must be identically zero.
    for (std::size_t i = common; i < bits_a.size(); ++i) diff = mgr.bdd_or(diff, bits_a[i]);
    for (std::size_t i = common; i < bits_b.size(); ++i) diff = mgr.bdd_or(diff, bits_b[i]);
  }

  EquivalenceResult result;
  result.equivalent = diff == BddManager::kFalse;
  if (!result.equivalent) {
    const auto sat = mgr.any_sat(diff, fa.num_vars);
    result.counterexample.assign(a.inputs().size(), 0);
    for (std::size_t p = 0; p < a.inputs().size(); ++p) {
      for (std::size_t bit = 0; bit < fa.var_of_input[p].size(); ++bit) {
        const int v = fa.var_of_input[p][bit];
        if (v >= 0 && (*sat)[static_cast<std::size_t>(v)]) {
          result.counterexample[p] |= std::uint64_t{1} << bit;
        }
      }
    }
  }
  return result;
}

}  // namespace realm::hw
