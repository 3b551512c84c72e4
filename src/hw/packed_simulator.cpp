#include "realm/hw/packed_simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "contracts.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::hw {

PackedSimulator::PackedSimulator(const Module& module) : module_{&module} {
  values_.assign(module.net_count(), 0);
  values_[kConst1] = ~std::uint64_t{0};
  toggle_counts_.assign(module.gates().size(), 0);
  prev_last_lane_.assign(module.gates().size(), 0);
}

void PackedSimulator::set_input_lanes(std::size_t port, const std::uint64_t* values,
                                      unsigned lanes) {
  if (lanes > kLanes) {
    throw std::invalid_argument("PackedSimulator::set_input_lanes: lanes in [0, 64]");
  }
  std::uint64_t value_bits = 0;
  for (unsigned l = 0; l < lanes; ++l) value_bits |= values[l];
  const Bus& bus = input_bus(*module_, port, value_bits, "PackedSimulator::set_input_lanes");
  // Transpose: bit i of values[l] becomes bit l of input bit i's word.
  for (std::size_t i = 0; i < bus.size(); ++i) {
    std::uint64_t word = 0;
    for (unsigned l = 0; l < lanes; ++l) word |= ((values[l] >> i) & 1u) << l;
    values_[bus[i]] = word;
  }
}

void PackedSimulator::set_input_word(std::size_t port, std::size_t bit,
                                     std::uint64_t word) {
  const Bus& bus = input_bus(*module_, port, 0, "PackedSimulator::set_input_word");
  if (bit >= bus.size()) throw std::out_of_range("PackedSimulator::set_input_word: bit");
  values_[bus[bit]] = word;
}

template <bool kCountToggles>
void PackedSimulator::sweep(unsigned lanes) {
  const auto& gates = module_->gates();
  // Transitions between adjacent lanes l and l+1 appear in bits 0..lanes-2
  // of w ^ (w >> 1).
  const std::uint64_t intra_mask =
      lanes >= 2 ? (~std::uint64_t{0} >> (kLanes - (lanes - 1))) : 0;
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    const std::uint64_t out =
        gate_value(g.kind, values_[g.in[0]], values_[g.in[1]], values_[g.in[2]]);
    if constexpr (kCountToggles) {
      std::uint64_t t =
          static_cast<std::uint64_t>(std::popcount((out ^ (out >> 1)) & intra_mask));
      if (primed_) t += (prev_last_lane_[gi] ^ out) & 1u;
      toggle_counts_[gi] += t;
      prev_last_lane_[gi] = static_cast<std::uint8_t>((out >> (lanes - 1)) & 1u);
    }
    values_[g.out] = out;
  }
  if constexpr (kCountToggles) {
    cycles_ += lanes - 1 + (primed_ ? 1u : 0u);
    primed_ = true;
  }
}

void PackedSimulator::eval() { sweep<false>(kLanes); }

void PackedSimulator::eval_cycles(unsigned lanes) {
  if (lanes == 0 || lanes > kLanes) {
    throw std::invalid_argument("PackedSimulator::eval_cycles: lanes in [1, 64]");
  }
  sweep<true>(lanes);
}

std::uint64_t PackedSimulator::output(std::size_t index, unsigned lane) const {
  const auto& ports = module_->outputs();
  if (index >= ports.size()) throw std::out_of_range("PackedSimulator::output");
  return read(ports[index].bus, lane);
}

std::uint64_t PackedSimulator::read(const Bus& bus, unsigned lane) const {
  if (lane >= kLanes) throw std::out_of_range("PackedSimulator::read: lane");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= ((values_[bus[i]] >> lane) & 1u) << i;
  }
  return v;
}

std::uint64_t PackedSimulator::word(NetId net) const {
  if (net >= values_.size()) throw std::out_of_range("PackedSimulator::word");
  return values_[net];
}

std::uint64_t PackedSimulator::toggles(std::size_t gate_index) const {
  if (gate_index >= toggle_counts_.size()) {
    throw std::out_of_range("PackedSimulator::toggles");
  }
  return toggle_counts_[gate_index];
}

void PackedSimulator::reset_activity() {
  toggle_counts_.assign(toggle_counts_.size(), 0);
  prev_last_lane_.assign(prev_last_lane_.size(), 0);
  cycles_ = 0;
  primed_ = false;
}

namespace {

// Operand pairs per equivalence block: 64 words = 4096 pairs.  Fixed so the
// block partition (and therefore mismatch-example order) never depends on
// the thread count.
constexpr std::uint64_t kEquivBlockWords = 64;

struct OperandSource {
  std::uint64_t mask_a, mask_b;
  int na;
  bool exhaustive;
  std::uint64_t seed;

  void operands(std::uint64_t pair_index, std::uint64_t& a, std::uint64_t& b) const {
    if (exhaustive) {
      a = pair_index & mask_a;
      b = pair_index >> na;
    } else {
      a = num::splitmix64_at(seed, 2 * pair_index) & mask_a;
      b = num::splitmix64_at(seed, 2 * pair_index + 1) & mask_b;
    }
  }
};

ModelEquivalence check_vs_model(const Module& module, const Multiplier& model,
                                 std::uint64_t pairs, const OperandSource& src,
                                 int threads) {
  if (module.inputs().size() != 2 || module.outputs().empty()) {
    throw std::invalid_argument(
        "equivalence check: module needs two input ports and an output");
  }
  if (pairs == 0) {
    throw std::invalid_argument("equivalence check: need at least one pair");
  }
  const std::uint64_t words = (pairs + PackedSimulator::kLanes - 1) / PackedSimulator::kLanes;
  const std::uint64_t blocks = (words + kEquivBlockWords - 1) / kEquivBlockWords;

  struct BlockResult {
    std::uint64_t mismatches = 0;
    std::vector<EquivalenceMismatch> examples;
  };
  std::vector<BlockResult> per_block(blocks);

  num::ThreadPool::global().run(
      static_cast<std::size_t>(blocks), threads,
      [&](std::size_t blk) {
        REALM_TRACE_SCOPE("equiv/block");
        PackedSimulator sim{module};
        BlockResult& res = per_block[blk];
        std::uint64_t a_ops[PackedSimulator::kLanes];
        std::uint64_t b_ops[PackedSimulator::kLanes];
        std::uint64_t expect[PackedSimulator::kLanes];
        const std::uint64_t w0 = static_cast<std::uint64_t>(blk) * kEquivBlockWords;
        const std::uint64_t w1 = std::min(words, w0 + kEquivBlockWords);
        std::uint64_t pairs_in_block = 0;
        for (std::uint64_t w = w0; w < w1; ++w) {
          const std::uint64_t base = w * PackedSimulator::kLanes;
          const unsigned lanes =
              static_cast<unsigned>(std::min<std::uint64_t>(PackedSimulator::kLanes,
                                                            pairs - base));
          for (unsigned l = 0; l < lanes; ++l) src.operands(base + l, a_ops[l], b_ops[l]);
          sim.set_input_lanes(0, a_ops, lanes);
          sim.set_input_lanes(1, b_ops, lanes);
          sim.eval();
          model.multiply_batch(a_ops, b_ops, expect, lanes);
          pairs_in_block += lanes;
          for (unsigned l = 0; l < lanes; ++l) {
            const std::uint64_t got = sim.output(0, l);
            if (got != expect[l]) {
              ++res.mismatches;
              if (res.examples.size() < ModelEquivalence::kMaxExamples) {
                res.examples.push_back({a_ops[l], b_ops[l], got, expect[l]});
              }
            }
          }
        }
        obs::counter_add(obs::Counter::kEquivPairs, pairs_in_block);
        obs::counter_add(obs::Counter::kGateEvals,
                         (w1 - w0) * module.gates().size());
        obs::counter_add(obs::Counter::kPackedBlocks, 1);
      });

  ModelEquivalence result;
  result.pairs_checked = pairs;
  for (const BlockResult& blk : per_block) {
    result.mismatches += blk.mismatches;
    for (const EquivalenceMismatch& m : blk.examples) {
      if (result.examples.size() >= ModelEquivalence::kMaxExamples) break;
      result.examples.push_back(m);
    }
  }
  return result;
}

}  // namespace

ModelEquivalence check_exhaustive_vs_model(const Module& module,
                                            const Multiplier& model, int threads) {
  if (module.inputs().size() != 2) {
    throw std::invalid_argument(
        "check_exhaustive_vs_model: module needs two input ports");
  }
  const int na = static_cast<int>(module.inputs()[0].bus.size());
  const int nb = static_cast<int>(module.inputs()[1].bus.size());
  if (na + nb > 26) {
    throw std::invalid_argument(
        "check_exhaustive_vs_model: input space above 2^26 pairs; use "
        "check_random_vs_model");
  }
  OperandSource src;
  src.mask_a = (std::uint64_t{1} << na) - 1;
  src.mask_b = (std::uint64_t{1} << nb) - 1;
  src.na = na;
  src.exhaustive = true;
  src.seed = 0;
  return check_vs_model(module, model, std::uint64_t{1} << (na + nb), src, threads);
}

ModelEquivalence check_random_vs_model(const Module& module, const Multiplier& model,
                                        std::uint64_t pairs, std::uint64_t seed,
                                        int threads) {
  if (module.inputs().size() != 2) {
    throw std::invalid_argument("check_random_vs_model: module needs two input ports");
  }
  const std::size_t na = module.inputs()[0].bus.size();
  const std::size_t nb = module.inputs()[1].bus.size();
  OperandSource src;
  src.mask_a = na >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << na) - 1;
  src.mask_b = nb >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nb) - 1;
  src.na = static_cast<int>(na);
  src.exhaustive = false;
  src.seed = seed;
  return check_vs_model(module, model, pairs, src, threads);
}

}  // namespace realm::hw
