#include "realm/multipliers/drum.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// The k-bit fragment from the leading one down: operands whose leading one
// is below bit k pass through unshifted; wider ones shift right by
// k_lead - k + 1 and force the fragment's LSB to 1, which unbiases the
// truncation.
struct DrumMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kFragment;
  std::uint64_t kth;  // k - 1: a shift is needed from leading-one position k on

  explicit Policy(const DrumMultiplier& m) : kth{static_cast<std::uint64_t>(m.k_ - 1)} {}

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t k) const {
    const std::uint64_t sh = k > kth ? k - kth : 0;
    const auto force = static_cast<std::uint64_t>(k > kth);
    return {sh, (v >> sh) | force, force};
  }
};

DrumMultiplier::DrumMultiplier(int n, int k) : n_{n}, k_{k} {
  if (n < 2 || n > 31) throw std::invalid_argument("DrumMultiplier: N in [2, 31]");
  if (k < 3 || k > n) throw std::invalid_argument("DrumMultiplier: k in [3, N]");
}

REALM_DATAPATH_ENTRY_POINTS(DrumMultiplier)

std::string DrumMultiplier::name() const { return "DRUM (k=" + std::to_string(k_) + ")"; }

}  // namespace realm::mult
