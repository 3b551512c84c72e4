// table1_sweep: Monte-Carlo characterization of every Table I design.
//
// One pass runs err::monte_carlo over all mult::table1_specs() at 16 bits,
// 2^20 samples per spec, on 2 engine threads, each spec with its own seed
// drawn from --seed.  One op is one MC sample.  This is the workload where
// the multiply_batch kernels and the MC engine (operand generation, moment
// reduction, shard merge on the pool) do most of the work.

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

constexpr std::uint64_t kSamples = std::uint64_t{1} << 20;
constexpr std::size_t kCheckPairs = 4096;
constexpr std::uint64_t kSeedStream = 0x7ab1e1;
constexpr std::uint64_t kCheckStream = 0xc0ffee;

class Table1Sweep final : public ComputeWorkload {
 public:
  explicit Table1Sweep(std::uint64_t seed) : seed_{seed} {}

  void setup(Report& report) override {
    const std::vector<std::string> specs = realm::mult::table1_specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Design d;
      d.spec = specs[i];
      d.family = family_of(specs[i]);
      d.model = realm::mult::make_multiplier(specs[i], kWidth);
      d.timed = std::make_unique<TimedMultiplier>(*d.model);
      d.mc_seed = draw(seed_, kSeedStream, i);
      if (!batch_matches_scalar(*d.model, i)) {
        report.fail(d.spec + ": multiply_batch differs from scalar multiply()");
        mark_bad(i);
      }
      designs_.push_back(std::move(d));
    }
  }

  std::vector<Unit> pass(bool traced, Tracer& tracer, std::int64_t pass_span) override {
    std::vector<Unit> units;
    units.reserve(designs_.size());
    for (Design& d : designs_) {
      realm::err::MonteCarloOptions opts;
      opts.samples = kSamples;
      opts.seed = d.mc_seed;
      opts.threads = kEngineThreads;
      const realm::Multiplier& m = traced ? *d.timed : *d.model;
      const std::int64_t span = tracer.open("err::monte_carlo", pass_span);
      const std::int64_t t0 = now_ns();
      const realm::err::ErrorMetrics e = realm::err::monte_carlo(m, opts);
      const std::int64_t ns = now_ns() - t0;
      tracer.close(span);
      if (traced) {
        const KernelTotals k = d.timed->harvest(tracer, span);
        Family& f = families_[d.family];
        f.kernel_ns += k.ns[static_cast<unsigned>(Entry::kBatch)];
        f.kernel_pairs += k.items[static_cast<unsigned>(Entry::kBatch)];
        f.call_ns += static_cast<double>(ns);
        self_ns_ += static_cast<double>(ns) - k.wall_ns();
        samples_ += e.samples;
      }
      std::uint64_t h = fnv1a_value(e.bias, 0xcbf29ce484222325ULL);
      for (const double v : {e.mean, e.variance, e.min, e.max}) h = fnv1a_value(v, h);
      // Pairs with a zero exact product are skipped, so samples <= kSamples.
      const bool ok = e.samples > 0 && e.samples <= kSamples;
      units.push_back(Unit{kSamples, fnv1a_value(e.samples, h), ns, ok});
    }
    return units;
  }

  void layer_metrics(Report& report, double traced_wall_ns) const override {
    for (const auto& [family, f] : families_) {
      report.layers["mult.batch_ns_per_pair." + family] =
          f.kernel_pairs > 0 ? static_cast<double>(f.kernel_ns) / static_cast<double>(f.kernel_pairs) : 0.0;
      report.layers["table1.share." + family] = f.call_ns / traced_wall_ns;
    }
    report.layers["error.mc_self_ns_per_sample"] =
        samples_ > 0 ? self_ns_ / static_cast<double>(samples_) : 0.0;
    if (self_ns_ < 0.0) report.fail("MC engine self time is negative: kernel timing is off");
  }

 private:
  struct Design {
    std::string spec;
    std::string family;
    std::unique_ptr<realm::Multiplier> model;
    std::unique_ptr<TimedMultiplier> timed;
    std::uint64_t mc_seed = 0;
  };
  struct Family {
    std::int64_t kernel_ns = 0;
    std::uint64_t kernel_pairs = 0;
    double call_ns = 0.0;
  };

  /// One seeded block through multiply_batch against scalar multiply().
  [[nodiscard]] bool batch_matches_scalar(const realm::Multiplier& m, std::size_t i) const {
    std::vector<std::uint64_t> a(kCheckPairs), b(kCheckPairs), out(kCheckPairs);
    const std::uint64_t mask = (std::uint64_t{1} << kWidth) - 1;
    for (std::size_t k = 0; k < kCheckPairs; ++k) {
      const std::uint64_t r = draw(seed_, kCheckStream + i, k);
      a[k] = r & mask;
      b[k] = (r >> 32) & mask;
    }
    m.multiply_batch(a.data(), b.data(), out.data(), kCheckPairs);
    for (std::size_t k = 0; k < kCheckPairs; ++k) {
      if (out[k] != m.multiply(a[k], b[k])) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::vector<Design> designs_;
  std::map<std::string, Family> families_;
  double self_ns_ = 0.0;
  std::uint64_t samples_ = 0;
};

}  // namespace

std::unique_ptr<ComputeWorkload> make_table1_sweep(std::uint64_t seed) {
  return std::make_unique<Table1Sweep>(seed);
}

}  // namespace pb
