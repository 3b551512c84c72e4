#include "realm/multipliers/implm.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// Signed fractions in Q(w) relative to the *nearest* power of two: the
// exponent is k + bit(k-1) (nearest-one detector) and f = v/2^e - 1 ∈
// [-1/4, 1/2), held two's-complement in the lane word.  v << w < 2^59 at
// N <= 30 and below 2^31 at N <= 16, so the scaled division is exact in
// either lane word.  C~ = 2^(ea+eb) · (1 + fa + fb): the fraction sum lies
// in [-1/2, 1), so the significand is in [1/2, 2) and never carries.  The
// exponent flips at the interval midpoint, so the range kernel splits there
// too.
template <class U>
struct ImplmMultiplier::Policy {
  using Word = U;
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  U w, f;

  explicit Policy(const ImplmMultiplier& m) : w{static_cast<U>(m.n_ - 1)}, f{w} {}

  [[nodiscard]] dp::Operand<U> decode(U v, U k) const {
    const U e = k + (((v << 1) >> k) & 1u);
    return {e, static_cast<U>(((v << w) >> e) - (U{1} << w)), 0};
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    return {static_cast<U>((U{1} << w) + a.frac + b.frac), 0};
  }
  [[nodiscard]] static std::uint64_t piece_last(std::uint64_t b, std::uint64_t kb,
                                                std::uint64_t last) {
    return dp::half_last(b, kb, last);
  }
};

ImplmMultiplier::ImplmMultiplier(int n) : n_{n} {
  if (n < 2 || n > 30) throw std::invalid_argument("ImplmMultiplier: N in [2, 30]");
}

REALM_DATAPATH_ENTRY_POINTS(ImplmMultiplier)

}  // namespace realm::mult
