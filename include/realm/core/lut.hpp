// Quantized error-reduction-factor lookup table (paper §III-C).
//
// The M² factors s_ij are rounded to q-bit fractional precision
// (round-to-nearest, LSB weight 2^-q) and stored as hardwired constants.
// For practical M ∈ {4, 8, 16} every factor lies in (0, 0.25), so the two
// top fraction bits are always zero and the physical table width is q-2
// bits — in hardware the LUT degenerates to a (q-2)-bit M²:1 multiplexer
// with constant inputs, selected by the log2(M) MSBs of each fraction.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "realm/core/segment_factors.hpp"

namespace realm::core {

/// Largest segment count M and quantization q a table may have: the bounds
/// of every spec key, wire request and CLI argument that names a table, so
/// one request cannot ask for 2^30 factors.  M = 256 is 65536 factors; q = 30
/// keeps every quantized value, MBM's correction included, inside the
/// uint32_t units.
inline constexpr int kMaxLutM = 256;
inline constexpr int kMaxLutQ = 30;

class SegmentLut {
 public:
  /// Builds the table for an M×M partitioning quantized to q fraction bits.
  /// M must be a power of two in [2, kMaxLutM] (its log2 selects fraction
  /// MSBs); q must be in [3, kMaxLutQ].  Throws std::invalid_argument
  /// otherwise, before deriving any factor, and also when a quantized factor
  /// rounds up to 0.25, which q - 2 stored bits cannot hold (M >= 8 at
  /// q <= 4, M = 256 at q = 6).
  SegmentLut(int m, int q);

  /// Process-wide cache of derived tables, keyed by (m, q).
  /// Deriving the factors integrates Eq. 11 (dilogarithms + adaptive
  /// quadrature cross-checks), which is far more expensive than the table
  /// itself — design-space sweeps construct the same handful of tables
  /// hundreds of times, so identical configurations share one immutable
  /// instance.  Entries are held strongly and live for the process; no table
  /// is ever freed or re-derived.  The key space bounds the cache: M is one
  /// of 8 powers of two up to kMaxLutM and q one of 28 values up to
  /// kMaxLutQ, so it holds at most 8 x 28 = 224 tables.  Thread-safe.
  [[nodiscard]] static std::shared_ptr<const SegmentLut> shared(int m, int q);

  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] int q() const noexcept { return q_; }
  [[nodiscard]] int select_bits() const noexcept { return log2m_; }

  /// Physical storage width per entry; the 2^-1 and 2^-2 bits are implicit
  /// zeros for every M this class accepts.
  [[nodiscard]] int stored_bits() const noexcept { return q_ - 2; }

  /// Exact (unquantized) factor for segment (i, j).
  [[nodiscard]] double exact(int i, int j) const;

  /// Quantized factor in integer units of 2^-q.
  [[nodiscard]] std::uint32_t units(int i, int j) const;

  /// Quantized factor as a real value (units(i,j) · 2^-q).
  [[nodiscard]] double quantized(int i, int j) const;

  /// Row-major vector of all quantized units — the hardwired mux constants.
  [[nodiscard]] const std::vector<std::uint32_t>& all_units() const noexcept {
    return units_;
  }

  /// Largest quantization error |quantized - exact| over the table
  /// (bounded by 2^-(q+1) for round-to-nearest).
  [[nodiscard]] double max_quantization_error() const;

 private:
  int m_;
  int q_;
  int log2m_;
  std::vector<double> exact_;
  std::vector<std::uint32_t> units_;
};

}  // namespace realm::core
