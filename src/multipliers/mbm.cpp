#include "realm/multipliers/mbm.hpp"

#include <cmath>
#include <stdexcept>

#include "datapath.hpp"
#include "realm/core/lut.hpp"
#include "realm/core/segment_factors.hpp"

namespace realm::mult {

// Mitchell with the forced rounding bit plus a single correction constant,
// halved when the fraction sum carried — identical application to REALM's
// s_ij (Eq. 13 with M = 1).  `corr` is the c_of = 0 addend (2s in 2^-(q+1)
// units) aligned to the f-bit fraction; the c_of = 1 addend is exactly
// corr >> 1 whether the alignment widens or narrows.  base0/base1 fold the
// implicit leading one into both.
template <class U>
struct MbmMultiplier::Policy {
  using Word = U;
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  U w, t, f, fmask, base0, base1;

  explicit Policy(const MbmMultiplier& m)
      : w{static_cast<U>(m.n_ - 1)},
        t{static_cast<U>(m.t_)},
        f{static_cast<U>(w - t)},
        fmask{static_cast<U>(num::mask(static_cast<int>(f)))} {
    const auto q1 = static_cast<std::uint64_t>(m.q_ + 1);
    const std::uint64_t doubled = std::uint64_t{m.corr_units_} << 1;
    const std::uint64_t corr = f >= q1 ? doubled << (f - q1) : doubled >> (q1 - f);
    base0 = static_cast<U>((std::uint64_t{1} << f) + corr);
    base1 = static_cast<U>((std::uint64_t{1} << f) + (corr >> 1));
  }

  [[nodiscard]] dp::Operand<U> decode(U v, U k) const {
    return {k, dp::log_fraction<U>(v, k, w, t, 1), 0};
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    const U fsum = a.frac + b.frac;
    const U c_of = fsum >> f;
    return {static_cast<U>((c_of != 0 ? base1 : base0) + (fsum & fmask)), c_of};
  }
};

std::uint32_t MbmMultiplier::correction_units(int q) {
  return static_cast<std::uint32_t>(
      std::lround(core::mbm_correction() * std::ldexp(1.0, q)));
}

MbmMultiplier::MbmMultiplier(int n, int t, int q)
    : n_{n}, t_{t}, q_{q}, corr_units_{correction_units(q)} {
  if (n < 2 || n > 31) throw std::invalid_argument("MbmMultiplier: N in [2, 31]");
  if (t < 0 || t > n - 2) throw std::invalid_argument("MbmMultiplier: t in [0, N-2]");
  // Past kMaxLutQ the quantized correction wraps in its uint32_t.
  if (q < 3 || q > core::kMaxLutQ) {
    throw std::invalid_argument("MbmMultiplier: q in [3, " +
                                std::to_string(core::kMaxLutQ) + "]");
  }
}

REALM_DATAPATH_ENTRY_POINTS(MbmMultiplier)

std::string MbmMultiplier::name() const { return "MBM (t=" + std::to_string(t_) + ")"; }

}  // namespace realm::mult
