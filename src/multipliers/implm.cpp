#include "realm/multipliers/implm.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// Signed fractions in Q(w) relative to the *nearest* power of two: the
// exponent is k + bit(k-1) (nearest-one detector) and f = v/2^e - 1 ∈
// [-1/4, 1/2), held two's-complement in the 64-bit lane.  v << w < 2^59 at
// N <= 30, so the scaled division is exact.  C~ = 2^(ea+eb) · (1 + fa + fb):
// the fraction sum lies in [-1/2, 1), so the significand is in [1/2, 2) and
// never carries.  The exponent flips at the interval midpoint, so the range
// kernel splits there too.
struct ImplmMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  std::uint64_t w, f;

  explicit Policy(const ImplmMultiplier& m)
      : w{static_cast<std::uint64_t>(m.n_ - 1)}, f{w} {}

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t k) const {
    const std::uint64_t e = k + (((v << 1) >> k) & 1u);
    return {e, ((v << w) >> e) - (std::uint64_t{1} << w), 0};
  }
  [[nodiscard]] dp::Term combine(const dp::Operand& a, const dp::Operand& b) const {
    return {(std::uint64_t{1} << w) + a.frac + b.frac, 0};
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
