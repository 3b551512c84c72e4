// Ablation studies of the design choices DESIGN.md calls out:
//   (a) the LUT quantization knob q (error vs stored bits),
//   (f) the architecture of the accurate reference multiplier.
// The section letters are the ones EXPERIMENTS.md cites; they are kept
// stable so that runs of different versions diff section by section.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/timing.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  err::MonteCarloOptions mco;
  mco.samples = args.samples / 4;
  mco.threads = args.threads;

  std::printf("(a) LUT quantization sweep, REALM8 t=0\n");
  std::printf("%6s %12s %10s %10s %10s\n", "q", "LUT bits", "bias %", "mean %", "peak %");
  // q <= 4 is unbuildable for M = 8: the largest factor (~0.225) rounds up
  // to 0.25 and no longer fits q-2 stored bits (SegmentLut rejects it).
  for (const int q : {5, 6, 7, 8, 10}) {
    const auto m = mult::make_multiplier("realm:m=8,t=0,q=" + std::to_string(q), 16);
    const auto r = err::monte_carlo(*m, mco);
    std::printf("%6d %12d %+10.3f %10.3f %10.3f\n", q, (q - 2) * 64, r.bias, r.mean,
                r.peak());
  }

  std::printf("\n(f) accurate-reference architecture (what the 'accurate' row assumes)\n");
  std::printf("%-14s %12s %12s %10s\n", "architecture", "area um^2", "delay ps", "depth");
  {
    struct Row {
      const char* label;
      hw::Module mod;
    };
    Row rows[] = {{"wallace", hw::build_accurate(16)},
                  {"array", hw::build_accurate_array(16)},
                  {"booth-r4", hw::build_accurate_booth(16)}};
    for (auto& row : rows) {
      row.mod.prune();
      const auto t = hw::analyze_timing(row.mod);
      std::printf("%-14s %12.1f %12.0f %10d\n", row.label, row.mod.area_um2(),
                  t.critical_path_ps, t.logic_depth);
    }
  }
  return 0;
}
