#include "realm/multipliers/alm.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// Approximate fraction addition: exact on the upper w-m bits, approximate on
// the lower m bits, no carry crossing the boundary except MAA's AND-based
// prediction.  Both adders are one branch-free formula: SOA fills the low
// part with ones (lo_fill = all ones) and predicts no carry; MAA ORs the low
// parts and predicts the carry from their top bits (carry_bit = 1).  With
// m = 0 the low mask and carry_bit are 0 and the sum is exact.
struct AlmMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  std::uint64_t w, f, fmask, m, lo_mask, lo_fill, carry_shift, carry_bit;

  explicit Policy(const AlmMultiplier& mul)
      : w{static_cast<std::uint64_t>(mul.n_ - 1)},
        f{w},
        fmask{num::mask(mul.n_ - 1)},
        m{static_cast<std::uint64_t>(mul.m_)},
        lo_mask{num::mask(mul.m_)},
        lo_fill{mul.adder_ == AlmAdder::kSetOne ? ~std::uint64_t{0} : 0},
        carry_shift{mul.m_ > 0 ? m - 1 : 0},
        carry_bit{mul.adder_ == AlmAdder::kLowerOr && mul.m_ > 0 ? 1u : 0u} {}

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t k) const {
    return {k, dp::log_fraction(v, k, w, 0, 0), 0};
  }
  [[nodiscard]] dp::Term combine(const dp::Operand& a, const dp::Operand& b) const {
    const std::uint64_t x = a.frac, y = b.frac;
    const std::uint64_t lo = (x | y | lo_fill) & lo_mask;
    const std::uint64_t carry = ((x & y) >> carry_shift) & carry_bit;
    const std::uint64_t fsum = (((x >> m) + (y >> m) + carry) << m) | lo;
    return {(std::uint64_t{1} << w) | (fsum & fmask), fsum >> w};
  }
};

AlmMultiplier::AlmMultiplier(int n, int m, AlmAdder adder)
    : n_{n}, m_{m}, adder_{adder} {
  if (n < 2 || n > 31) throw std::invalid_argument("AlmMultiplier: N in [2, 31]");
  if (m < 0 || m > n - 1) throw std::invalid_argument("AlmMultiplier: m in [0, N-1]");
}

REALM_DATAPATH_ENTRY_POINTS(AlmMultiplier)

std::string AlmMultiplier::name() const {
  const char* kind = adder_ == AlmAdder::kSetOne ? "ALM-SOA" : "ALM-MAA";
  return std::string{kind} + " (m=" + std::to_string(m_) + ")";
}

}  // namespace realm::mult
