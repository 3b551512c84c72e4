#include "realm/multipliers/mitchell.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// Eq. 3: both branches collapse to (1.frac) · 2^(ka+kb+carry) because
// x + y >= 1 means x + y = 1 + frac.  t <= N-2 leaves f >= 1 fraction bits,
// as the netlist builder requires.
template <class U>
struct MitchellMultiplier::Policy {
  using Word = U;
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  U w, t, f, fmask;

  explicit Policy(const MitchellMultiplier& m)
      : w{static_cast<U>(m.n_ - 1)},
        t{static_cast<U>(m.t_)},
        f{static_cast<U>(w - t)},
        fmask{static_cast<U>(num::mask(static_cast<int>(f)))} {}

  [[nodiscard]] dp::Operand<U> decode(U v, U k) const {
    return {k, dp::log_fraction<U>(v, k, w, t, 0), 0};
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    const U fsum = a.frac + b.frac;
    return {static_cast<U>((U{1} << f) | (fsum & fmask)), static_cast<U>(fsum >> f)};
  }
};

MitchellMultiplier::MitchellMultiplier(int n, int t) : n_{n}, t_{t} {
  if (n < 2 || n > 31) throw std::invalid_argument("MitchellMultiplier: N in [2, 31]");
  if (t < 0 || t > n - 2) throw std::invalid_argument("MitchellMultiplier: t in [0, N-2]");
}

REALM_DATAPATH_ENTRY_POINTS(MitchellMultiplier)

std::string MitchellMultiplier::name() const {
  return t_ == 0 ? "cALM" : "cALM (t=" + std::to_string(t_) + ")";
}

}  // namespace realm::mult
