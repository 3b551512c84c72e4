// Gate-level simulation engine benchmark: the scalar one-vector-per-sweep
// Simulator vs the 64-lane packed engine, on the two workloads it serves
// (power sweeps, exhaustive equivalence).  Also verifies on every run that
// the packed power results are bit-identical to the scalar reference, and
// writes bench_out/BENCH_gate_sim.json so CI tracks the perf trajectory next
// to BENCH_eval_engine.json.

#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/power.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/metrics_sink.hpp"

using namespace realm;
using bench::best_seconds;

namespace {

// Repetition cap for best_seconds (the other benches keep its default).
constexpr int kMaxReps = 32;

bool reports_identical(const hw::PowerReport& a, const hw::PowerReport& b) {
  return a.dynamic == b.dynamic && a.leakage == b.leakage;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const int nt = args.threads > 0 ? args.threads
                                  : static_cast<int>(hw_threads == 0 ? 1 : hw_threads);

  const char* spec = "realm:m=16,t=0";  // REALM16, the paper's headline config
  const hw::Module mod = hw::build_circuit(spec, 16);
  std::printf("gate-level simulation engine, %s (%zu gates)\n", spec,
              mod.gates().size());

  // --- power sweep: scalar reference vs packed, 1 and N threads -----------
  hw::StimulusProfile p1;
  p1.cycles = args.cycles;
  p1.threads = 1;
  hw::StimulusProfile pn = p1;
  pn.threads = nt;

  const auto scalar_report = hw::estimate_power_reference(mod, p1);
  const auto packed_report = hw::estimate_power(mod, pn);
  const bool power_identical = reports_identical(scalar_report, packed_report);

  const double cyc = static_cast<double>(args.cycles);
  const double power_scalar =
      cyc / best_seconds([&] { (void)hw::estimate_power_reference(mod, p1); }, kMaxReps);
  const double power_packed_1t =
      cyc / best_seconds([&] { (void)hw::estimate_power(mod, p1); }, kMaxReps);
  const double power_packed_nt =
      cyc / best_seconds([&] { (void)hw::estimate_power(mod, pn); }, kMaxReps);

  std::printf("\npower sweep (%u cycles):\n", args.cycles);
  std::printf("  scalar reference: %10.0f cycles/s\n", power_scalar);
  std::printf("  packed engine:    %10.0f cycles/s (1 thread)  %10.0f cycles/s (%d threads)\n",
              power_packed_1t, power_packed_nt, nt);
  std::printf("  speedup: %.2fx (1 thread), %.2fx (%d threads); bit-identical: %s\n",
              power_packed_1t / power_scalar, power_packed_nt / power_scalar, nt,
              power_identical ? "yes" : "NO");

  // --- exhaustive equivalence (8x8: the full 2^16 input space) ------------
  const hw::Module mod8 = hw::build_circuit("realm:m=4,t=0", 8);
  const auto model8 = mult::make_multiplier("realm:m=4,t=0", 8);
  const auto equiv = hw::check_exhaustive_vs_model(mod8, *model8, nt);
  const double equiv_pairs = static_cast<double>(equiv.pairs_checked);
  const double equiv_pps = equiv_pairs / best_seconds([&] {
    (void)hw::check_exhaustive_vs_model(mod8, *model8, nt);
  }, kMaxReps);
  std::printf("\nexhaustive 8x8 equivalence (realm:m=4,t=0): %llu pairs, %s, %.1f Mpairs/s\n",
              static_cast<unsigned long long>(equiv.pairs_checked),
              equiv.equivalent() ? "equivalent" : "MISMATCH", equiv_pps / 1e6);

  obs::MetricsSink sink{"gate_sim"};
  sink.meta("config", spec);
  sink.meta("gates", mod.gates().size());
  sink.meta("cycles", args.cycles);
  sink.meta("threads", nt);
  sink.metric("power_scalar_cps", power_scalar);
  sink.metric("power_packed_cps_1t", power_packed_1t);
  sink.metric("power_packed_cps_nt", power_packed_nt);
  sink.metric("power_speedup_1t", power_packed_1t / power_scalar);
  sink.metric("power_speedup_nt", power_packed_nt / power_scalar);
  sink.metric("power_bit_identical", power_identical);
  sink.metric("equiv_pairs", equiv.pairs_checked);
  sink.metric("equiv_pairs_per_s", equiv_pps);
  sink.metric("equiv_ok", equiv.equivalent());
  std::printf("\n");
  bench::write_outputs(args, sink, "bench_out/BENCH_gate_sim.json");

  if (!power_identical || !equiv.equivalent()) {
    std::fprintf(stderr, "ERROR: packed engine diverged from the scalar reference\n");
    return 1;
  }
  return 0;
}
