#include "realm/multipliers/ssm.hpp"

#include <stdexcept>

#include "datapath.hpp"

namespace realm::mult {

// The static segment of an operand: SSM takes the top m bits (offset
// off = N - m) from 2^m on, else the operand itself; ESSM adds a middle
// segment at offset off_mid = (N - m)/2 from 2^m on and moves the top one to
// 2^(m + off_mid).  The selects compare the operand itself, as the
// hardware's OR of the upper bits does, so the kernels need no LOD, and
// pick between invariant shifts of v, which vectorize as uniform shifts.
// The thresholds are powers of two, so a range piece never straddles one.
struct SsmMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kFragment;
  std::uint64_t top_min, off;

  explicit Policy(const SsmMultiplier& s)
      : top_min{std::uint64_t{1} << s.m_}, off{static_cast<std::uint64_t>(s.n_ - s.m_)} {}

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t /*k*/) const {
    const bool top = v >= top_min;
    return {top ? off : 0, top ? v >> off : v, 0};
  }
};

struct EssmMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kFragment;
  std::uint64_t mid_min, hi_min, off_mid, off_hi;

  explicit Policy(const EssmMultiplier& s)
      : mid_min{std::uint64_t{1} << s.m_},
        hi_min{std::uint64_t{1} << (s.m_ + (s.n_ - s.m_) / 2)},
        off_mid{static_cast<std::uint64_t>((s.n_ - s.m_) / 2)},
        off_hi{static_cast<std::uint64_t>(s.n_ - s.m_)} {}

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t /*k*/) const {
    const bool hi = v >= hi_min;
    const bool mid = v >= mid_min;
    return {hi ? off_hi : (mid ? off_mid : 0), hi ? v >> off_hi : (mid ? v >> off_mid : v), 0};
  }
};

SsmMultiplier::SsmMultiplier(int n, int m) : n_{n}, m_{m} {
  if (n < 2 || n > 31) throw std::invalid_argument("SsmMultiplier: N in [2, 31]");
  if (m < 1 || m > n) throw std::invalid_argument("SsmMultiplier: m in [1, N]");
}

REALM_DATAPATH_ENTRY_POINTS(SsmMultiplier)

std::string SsmMultiplier::name() const { return "SSM (m=" + std::to_string(m_) + ")"; }

EssmMultiplier::EssmMultiplier(int n, int m) : n_{n}, m_{m} {
  if (n < 2 || n > 31) throw std::invalid_argument("EssmMultiplier: N in [2, 31]");
  if (m < 1 || m > n) throw std::invalid_argument("EssmMultiplier: m in [1, N]");
  if ((n - m) % 2 != 0) {
    throw std::invalid_argument("EssmMultiplier: N-m must be even");
  }
}

REALM_DATAPATH_ENTRY_POINTS(EssmMultiplier)

std::string EssmMultiplier::name() const {
  return "ESSM" + std::to_string(m_) + " (m=" + std::to_string(m_) + ")";
}

}  // namespace realm::mult
