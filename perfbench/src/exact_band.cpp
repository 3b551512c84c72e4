// exact_band: exact characterization over a seeded square operand band.
//
// One pass runs err::exhaustive_report for eight designs, one per kernel
// shape, over the same square band of 2^14 consecutive 16-bit operands
// (2^28 pairs per design) on 2 engine threads.  One op is one operand pair.
// The band's offset comes from --seed; it starts at or above 2^14 so a band
// crosses at most one power of two, which keeps the work per band the same
// for every seed.  This workload runs multiply_row_range and the tiled
// reduction with no operand generation; `accurate` gives the engine's
// reduction floor.

#include <memory>
#include <string>
#include <vector>

#include "families.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "timed_multiplier.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr std::uint64_t kBand = std::uint64_t{1} << 14;
constexpr std::uint64_t kBandStream = 0xba9d;
const char* const kSpecs[] = {"realm:m=16,t=4", "realm:m=8,t=4", "realm:m=4,t=4", "calm",
                              "mbm:t=0",        "drum:k=6",      "ssm:m=10",      "accurate"};

/// A witness must re-multiply to the product it recorded.
[[nodiscard]] bool witness_ok(const realm::Multiplier& m,
                              const realm::err::PeakWitness& w) {
  return !w.valid || m.multiply(w.a, w.b) == w.product;
}

class ExactBand final : public ComputeWorkload {
 public:
  explicit ExactBand(std::uint64_t seed) : seed_{seed} {
    lo_ = kBand + draw(seed, kBandStream, 0) % ((std::uint64_t{1} << kWidth) - 2 * kBand + 1);
    hi_ = lo_ + kBand - 1;
  }

  void setup(Report& report) override {
    for (const char* spec : kSpecs) {
      Design d;
      d.spec = spec;
      d.family = family_of(spec);
      d.model = realm::mult::make_multiplier(spec, kWidth);
      d.timed = std::make_unique<TimedMultiplier>(*d.model);
      if (!row_matches_scalar(*d.model, designs_.size())) {
        report.fail(d.spec + ": multiply_row_range differs from scalar multiply()");
        mark_bad(designs_.size());
      }
      designs_.push_back(std::move(d));
    }
    report.info["band_lo"] = static_cast<double>(lo_);
  }

  std::vector<Unit> pass(bool traced, Tracer& tracer, std::int64_t pass_span) override {
    std::vector<Unit> units;
    units.reserve(designs_.size());
    for (Design& d : designs_) {
      const realm::Multiplier& m = traced ? *d.timed : *d.model;
      const std::int64_t span = tracer.open("err::exhaustive_report", pass_span);
      const std::int64_t t0 = now_ns();
      const realm::err::ExhaustiveReport rep =
          realm::err::exhaustive_report(m, nullptr, lo_, hi_, kEngineThreads);
      const std::int64_t ns = now_ns() - t0;
      tracer.close(span);
      if (traced) {
        const KernelTotals k = d.timed->harvest(tracer, span);
        Family& f = families_[d.family];
        f.kernel_ns += k.ns[static_cast<unsigned>(Entry::kRowRange)];
        f.kernel_pairs += k.items[static_cast<unsigned>(Entry::kRowRange)];
        self_ns_ += static_cast<double>(ns) - k.wall_ns();
        pairs_ += rep.pairs;
      }
      const realm::err::ErrorMetrics& e = rep.metrics;
      bool ok = rep.pairs == kBand * kBand && witness_ok(*d.model, rep.min_peak) &&
                witness_ok(*d.model, rep.max_peak);
      if (d.spec == "accurate") ok = ok && e.mean == 0.0 && e.peak() == 0.0;
      std::uint64_t h = fnv1a_value(rep.pairs, 0xcbf29ce484222325ULL);
      for (const double v : {e.bias, e.mean, e.variance, e.min, e.max}) h = fnv1a_value(v, h);
      for (const realm::err::PeakWitness* w : {&rep.min_peak, &rep.max_peak}) {
        for (const std::uint64_t v : {w->a, w->b, w->product}) h = fnv1a_value(v, h);
      }
      units.push_back(Unit{rep.pairs, h, ns, ok});
    }
    return units;
  }

  void layer_metrics(Report& report, double /*traced_wall_ns*/) const override {
    for (const auto& [family, f] : families_) {
      report.layers["mult.row_ns_per_pair." + family] =
          f.kernel_pairs > 0 ? static_cast<double>(f.kernel_ns) / static_cast<double>(f.kernel_pairs) : 0.0;
    }
    report.layers["error.exhaustive_self_ns_per_pair"] =
        pairs_ > 0 ? self_ns_ / static_cast<double>(pairs_) : 0.0;
    if (self_ns_ < 0.0) report.fail("exhaustive engine self time is negative: kernel timing is off");
  }

 private:
  struct Design {
    std::string spec;
    std::string family;
    std::unique_ptr<realm::Multiplier> model;
    std::unique_ptr<TimedMultiplier> timed;
  };
  struct Family {
    std::int64_t kernel_ns = 0;
    std::uint64_t kernel_pairs = 0;
  };

  /// One seeded row of the band through multiply_row_range against scalar
  /// multiply().
  [[nodiscard]] bool row_matches_scalar(const realm::Multiplier& m, std::size_t i) const {
    std::vector<std::uint64_t> out(kBand);
    const std::uint64_t a = lo_ + draw(seed_, kBandStream, 1 + i) % kBand;
    m.multiply_row_range(a, lo_, out.data(), kBand);
    for (std::uint64_t k = 0; k < kBand; ++k) {
      if (out[k] != m.multiply(a, lo_ + k)) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::vector<Design> designs_;
  std::map<std::string, Family> families_;
  double self_ns_ = 0.0;
  std::uint64_t pairs_ = 0;
};

}  // namespace

std::unique_ptr<ComputeWorkload> make_exact_band(std::uint64_t seed) {
  return std::make_unique<ExactBand>(seed);
}

}  // namespace pb
