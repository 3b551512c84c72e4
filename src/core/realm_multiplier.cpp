#include "realm/core/realm_multiplier.hpp"

#include <stdexcept>

#include "../multipliers/datapath.hpp"

namespace realm::core {

// The REALM datapath of Fig. 3 as a log-shape policy.  decode() is the LOD
// plus input barrel shifter: the w-bit fraction below the leading one, t LSBs
// truncated, the new LSB forced to 1; its log2(M) MSBs are the segment.  The
// fraction adder's carry c_of selects s_ij vs s_ij >> 1 (Eq. 13): batch_lut_
// holds the aligned c_of = 0 value and the c_of = 1 value is exactly one bit
// lower.  Either way the significand word is (1.frac) + s_sel, carried out
// to f+2 bits — the final barrel shifter moves the whole word, so a carry
// out of the fraction needs no special decode.  A final shift below the
// fraction width drops bits (the paper's special case 2); operands near
// 2^N - 1 reach 2N+1 result bits (special case 1) — both reproduced
// faithfully.
template <class U>
struct RealmMultiplier::Policy {
  using Word = U;
  static constexpr mult::dp::Shape kShape = mult::dp::Shape::kLog;
  U w, t, f, fmask, sel, sel_shift, col_shift;
  // 64-bit entries under either lane word: with 32-bit entries GCC lowers
  // the lookup to scalar inserts instead of a gather.
  const std::uint64_t* __restrict lut;

  explicit Policy(const RealmMultiplier& r)
      : w{static_cast<U>(r.cfg_.n - 1)},
        t{static_cast<U>(r.cfg_.t)},
        f{static_cast<U>(w - t)},
        fmask{static_cast<U>(num::mask(static_cast<int>(f)))},
        sel{static_cast<U>(r.lut_->select_bits())},
        sel_shift{static_cast<U>(f - sel)},
        // A segment is u >> (w - sel) of the normalized offset u; at
        // sel_shift = 0 it also holds the forced LSB, fixed by u >> (t + 1).
        col_shift{static_cast<U>(w - sel + (sel_shift == 0 ? 1u : 0u))},
        lut{r.batch_lut_.data()} {}

  [[nodiscard]] mult::dp::Operand<U> decode(U v, U k) const {
    const U x = mult::dp::log_fraction<U>(v, k, w, t, 1);
    return {k, x, static_cast<U>(x >> sel_shift)};
  }
  [[nodiscard]] mult::dp::Term<U> combine(const mult::dp::Operand<U>& a,
                                          const mult::dp::Operand<U>& b) const {
    const U fsum = a.frac + b.frac;
    const U c_of = fsum >> f;
    // Both carry cases as selects, so over a range piece (constant entry)
    // the significand base folds to a blend of two invariants.
    const auto s = static_cast<U>(lut[(a.seg << sel) | b.seg]);
    const U s_sel = c_of != 0 ? static_cast<U>(s >> 1) : s;
    return {static_cast<U>((U{1} << f) + (fsum & fmask) + s_sel), c_of};
  }
  // Splits a power-of-two interval at the LUT column boundaries: the segment
  // is monotone in b, so within a piece the LUT entry is a constant.
  [[nodiscard]] std::uint64_t piece_last(std::uint64_t b, std::uint64_t kb,
                                         std::uint64_t last) const {
    const std::uint64_t norm = w - kb;
    const std::uint64_t one_w = std::uint64_t{1} << w;
    const std::uint64_t j = ((b << norm) - one_w) >> col_shift;
    return std::min(last, (one_w + ((j + 1) << col_shift) - 1) >> norm);
  }
};

RealmMultiplier::RealmMultiplier(RealmConfig cfg) : cfg_{cfg} {
  // N is capped at 31 so the widest product (2N+1 bits, special case 1)
  // still fits the uint64_t result bus.
  if (cfg_.n < 2 || cfg_.n > 31) {
    throw std::invalid_argument("RealmMultiplier: N must be in [2, 31]");
  }
  if (cfg_.t < 0) throw std::invalid_argument("RealmMultiplier: t must be >= 0");
  // The kept fraction must still contain the log2(M) segment-select MSBs.
  // Checked before the table is derived, so a rejected configuration costs
  // no derivation and leaves no cache entry.
  if (cfg_.fraction_bits() < cfg_.select_bits()) {
    throw std::invalid_argument(
        "RealmMultiplier: t too large — fraction no longer addresses the LUT");
  }
  lut_ = SegmentLut::shared(cfg_.m, cfg_.q);

  // Pre-align the LUT for the batch kernel: entry = (s_ij << 1) shifted to
  // the f-bit fraction (the c_of = 0 addend); the c_of = 1 addend is
  // entry >> 1 exactly, in both the widening and narrowing direction.
  const int f = cfg_.fraction_bits();
  const int q1 = cfg_.q + 1;
  const auto& units = lut_->all_units();
  batch_lut_.resize(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::uint64_t doubled = std::uint64_t{units[i]} << 1;
    batch_lut_[i] = f >= q1 ? (doubled << (f - q1)) : (doubled >> (q1 - f));
  }
}

REALM_DATAPATH_ENTRY_POINTS(RealmMultiplier)

std::uint64_t RealmMultiplier::multiply_saturated(std::uint64_t a, std::uint64_t b) const {
  return num::saturate(multiply(a, b), 2 * cfg_.n);
}

std::string RealmMultiplier::name() const {
  return "REALM" + std::to_string(cfg_.m) + " (t=" + std::to_string(cfg_.t) + ")";
}

}  // namespace realm::core
