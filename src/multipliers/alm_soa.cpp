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
template <class U>
struct AlmMultiplier::Policy {
  using Word = U;
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  U w, f, fmask, m, lo_mask, lo_fill, carry_shift, carry_bit;

  explicit Policy(const AlmMultiplier& mul)
      : w{static_cast<U>(mul.n_ - 1)},
        f{w},
        fmask{static_cast<U>(num::mask(mul.n_ - 1))},
        m{static_cast<U>(mul.m_)},
        lo_mask{static_cast<U>(num::mask(mul.m_))},
        lo_fill{mul.adder_ == AlmAdder::kSetOne ? static_cast<U>(~U{0}) : U{0}},
        carry_shift{static_cast<U>(mul.m_ > 0 ? m - 1 : 0)},
        carry_bit{static_cast<U>(mul.adder_ == AlmAdder::kLowerOr && mul.m_ > 0 ? 1u : 0u)} {}

  [[nodiscard]] dp::Operand<U> decode(U v, U k) const {
    return {k, dp::log_fraction<U>(v, k, w, 0, 0), 0};
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    const U x = a.frac, y = b.frac;
    const U lo = (x | y | lo_fill) & lo_mask;
    const U carry = ((x & y) >> carry_shift) & carry_bit;
    const U fsum = static_cast<U>((((x >> m) + (y >> m) + carry) << m) | lo);
    return {static_cast<U>((U{1} << w) | (fsum & fmask)), static_cast<U>(fsum >> w)};
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
