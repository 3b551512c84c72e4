#include "realm/core/lut.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "realm/numeric/bits.hpp"
#include "realm/obs/counters.hpp"

namespace realm::core {

std::shared_ptr<const SegmentLut> SegmentLut::shared(int m, int q) {
  using Key = std::pair<int, int>;
  static std::mutex mu;
  // Strong cache: a derived table lives for the process.  Each table is a
  // few KB and the key space is the handful of (M, q) pairs a run touches,
  // while re-derivation costs a dilog quadrature per segment —
  // the weak_ptr cache this replaces expired between the sequential
  // construct-use-destroy iterations of every sweep (Table I, DSE) and so
  // never actually served a hit.
  static std::map<Key, std::shared_ptr<const SegmentLut>> cache;

  const Key key{m, q};
  std::lock_guard lock{mu};
  const auto it = cache.find(key);
  if (it != cache.end()) {
    obs::counter_add(obs::Counter::kLutCacheHits, 1);
    return it->second;
  }
  // Construct outside the map so a throwing constructor (invalid m/q) leaves
  // the cache untouched.
  auto fresh = std::make_shared<const SegmentLut>(m, q);
  obs::counter_add(obs::Counter::kLutCacheMisses, 1);
  cache[key] = fresh;
  return fresh;
}

SegmentLut::SegmentLut(int m, int q) : m_{m}, q_{q}, log2m_{0} {
  if (m < 2 || m > kMaxLutM || !std::has_single_bit(static_cast<unsigned>(m))) {
    throw std::invalid_argument("SegmentLut: M must be a power of two in [2, " +
                                std::to_string(kMaxLutM) + "]");
  }
  if (q < 3 || q > kMaxLutQ) {
    throw std::invalid_argument("SegmentLut: q must be in [3, " +
                                std::to_string(kMaxLutQ) + "]");
  }
  log2m_ = num::clog2(static_cast<std::uint64_t>(m));

  exact_ = segment_factor_table(m);
  units_.resize(exact_.size());
  const double scale = std::ldexp(1.0, q_);
  for (std::size_t k = 0; k < exact_.size(); ++k) {
    const auto u = static_cast<long>(std::lround(exact_[k] * scale));
    if (u < 0 || u >= (1L << (q_ - 2))) {
      // The (0, 0.25) bound is a theorem for Eq. 8's factors; failing it
      // means q rounds a factor up to 0.25, which this layout cannot store.
      // The (M, q) pair is the caller's configuration, so this is an invalid
      // argument like the range checks above.
      throw std::invalid_argument(
          "SegmentLut: factor outside [0, 0.25) after quantization; raise q");
    }
    units_[k] = static_cast<std::uint32_t>(u);
  }
}

double SegmentLut::exact(int i, int j) const {
  if (i < 0 || i >= m_ || j < 0 || j >= m_) throw std::out_of_range("SegmentLut");
  return exact_[static_cast<std::size_t>(i * m_ + j)];
}

std::uint32_t SegmentLut::units(int i, int j) const {
  if (i < 0 || i >= m_ || j < 0 || j >= m_) throw std::out_of_range("SegmentLut");
  return units_[static_cast<std::size_t>(i * m_ + j)];
}

double SegmentLut::quantized(int i, int j) const {
  return static_cast<double>(units(i, j)) * std::ldexp(1.0, -q_);
}

double SegmentLut::max_quantization_error() const {
  double worst = 0.0;
  const double inv = std::ldexp(1.0, -q_);
  for (std::size_t k = 0; k < exact_.size(); ++k) {
    worst = std::max(worst, std::fabs(static_cast<double>(units_[k]) * inv - exact_[k]));
  }
  return worst;
}

}  // namespace realm::core
