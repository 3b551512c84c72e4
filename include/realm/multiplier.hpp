// Common interface of every multiplier model in the library.
//
// All designs evaluated in the paper are combinational unsigned N×N integer
// multipliers; behaviorally each is just a pure function
// (a, b) -> approximate product.  The virtual interface lets the error
// harness, the JPEG application, and the design-space sweep treat REALM and
// the ten baselines uniformly.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "realm/obs/counters.hpp"

namespace realm {

class Multiplier {
 public:
  Multiplier() = default;
  Multiplier(const Multiplier&) = default;
  Multiplier& operator=(const Multiplier&) = default;
  Multiplier(Multiplier&&) = default;
  Multiplier& operator=(Multiplier&&) = default;
  virtual ~Multiplier() = default;

  /// Approximate (or exact) product of two unsigned width()-bit operands.
  /// Operands wider than width() bits are a precondition violation; models
  /// assert in debug builds.
  [[nodiscard]] virtual std::uint64_t multiply(std::uint64_t a,
                                               std::uint64_t b) const = 0;

  /// Element-wise product of two operand vectors: out[i] = multiply(a[i],
  /// b[i]) for i in [0, n).  The result must be bit-identical to n scalar
  /// multiply() calls — the error harness relies on that equivalence.
  ///
  /// The base implementation is a plain loop over the virtual multiply().
  /// Every Table I design overrides it with a devirtualized, vectorized
  /// kernel that hoists configuration-dependent constants out of the loop,
  /// which is what makes the 2^24-sample Monte-Carlo characterization runs
  /// cheap: REALM, cALM, MBM, ALM-SOA/MAA, ImpLM, IntALP, DRUM, SSM and ESSM
  /// generate theirs from one datapath policy per family
  /// (src/multipliers/datapath.hpp), AM1/AM2 from their lane-blocked
  /// reduction tree, and the exact reference is a plain product loop.  The
  /// policy kernels run 32-bit lanes for operands of up to 16 bits (AM's at
  /// exactly 16), 16 pairs per 512-bit vector, and 64-bit lanes above, as
  /// multiply() does.  This
  /// loop is the default for a design that overrides only multiply(), such
  /// as a wrapper or a test double.  `out` may alias neither `a` nor `b`.
  virtual void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                              std::uint64_t* out, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = multiply(a[i], b[i]);
  }

  /// Fixed-operand row product: out[i] = multiply(a_fixed, b[i]) for i in
  /// [0, n), bit-identical to n scalar calls.  It broadcasts a_fixed into a
  /// stack block and forwards to multiply_batch; each forwarded block is
  /// counted in obs::Counter::kRowFallbackBatches.  No library design
  /// overrides it: the fixed-operand kernels are multiply_row_range's.  It
  /// stays virtual so that a wrapper can observe every call.  `out` may not
  /// alias `b`.
  virtual void multiply_row_batch(std::uint64_t a_fixed, const std::uint64_t* b,
                                  std::uint64_t* out, std::size_t n) const {
    constexpr std::size_t kChunk = 1024;
    std::uint64_t a_rep[kChunk];
    const std::size_t fill = n < kChunk ? n : kChunk;
    for (std::size_t i = 0; i < fill; ++i) a_rep[i] = a_fixed;
    std::size_t batches = 0;
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk, ++batches) {
      const std::size_t len = n - i0 < kChunk ? n - i0 : kChunk;
      multiply_batch(a_rep, b + i0, out + i0, len);
    }
    obs::counter_add(obs::Counter::kRowFallbackBatches, batches);
  }

  /// Contiguous-column row product: out[i] = multiply(a_fixed, b0 + i) for
  /// i in [0, n), bit-identical to the scalar loop.  This is the shape of
  /// the exhaustive characterization engine — a full-space sweep holds one
  /// operand constant per row — and of the JPEG DctProducts table.  Every
  /// Table I design overrides it with a kernel that decodes the fixed operand
  /// (leading-one position, truncated log fraction, segment row) once per
  /// call and keeps it in registers.  The column range is ascending, so the
  /// variable operand's leading-one position is monotone over it: the
  /// datapath families split [b0, b0+n) at the powers of two and run a
  /// constant-shift kernel per segment, which removes the remaining LOD and
  /// turns the final barrel shift into two fixed shifts (in 64 bits, also
  /// when the rest of the kernel runs the 32-bit lanes of operands up to 16
  /// bits); AM1/AM2 run their lane kernel with the fixed operand broadcast.
  /// The base implementation,
  /// which no library design keeps, materializes the range in stack chunks
  /// and forwards to multiply_row_batch.  `out` must not overlap the range.
  virtual void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                  std::uint64_t* out, std::size_t n) const {
    constexpr std::size_t kChunk = 1024;
    std::uint64_t b_iota[kChunk];
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
      const std::size_t len = n - i0 < kChunk ? n - i0 : kChunk;
      for (std::size_t i = 0; i < len; ++i) b_iota[i] = b0 + i0 + i;
      multiply_row_batch(a_fixed, b_iota, out + i0, len);
    }
  }

  /// Human-readable design name including its configuration,
  /// e.g. "REALM16 (t=4)" or "DRUM (k=6)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Operand width N in bits.
  [[nodiscard]] virtual int width() const = 0;

  /// Plain function object over multiply().  Its one remaining library use
  /// is CodecOptions::umul, which feeds the JPEG reference codec
  /// (encode_plane_reference / decode_plane_reference); applications take
  /// `const Multiplier&`.
  [[nodiscard]] std::function<std::uint64_t(std::uint64_t, std::uint64_t)>
  as_function() const {
    return [this](std::uint64_t a, std::uint64_t b) { return multiply(a, b); };
  }
};

}  // namespace realm
