// Ablation studies of the design choices DESIGN.md calls out:
//   (a) the LUT quantization knob q (error vs stored bits),
//   (b) the relative-error formulation vs the mean-square-error variant the
//       paper lists as future work,
//   (c) the power model: functional toggles vs unit-delay glitch counting,
//   (d) JPEG with exact vs approximate (general-multiplier) dequantization.

#include <cstdio>
#include <initializer_list>
#include <utility>
#include <string>

#include "bench_common.hpp"
#include "realm/core/lut.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/power.hpp"
#include "realm/hw/timing.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/synthetic.hpp"
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

  std::printf("\n(b) formulation: mean-relative-error (paper) vs mean-square-error\n");
  std::printf("%-12s %3s %10s %10s %10s %10s %14s\n", "config", "q", "MRE bias",
              "MRE mean", "MSE bias", "MSE mean", "LUT diffs");
  for (const int m : {4, 8, 16}) {
    for (const int q : {6, 8}) {
      const std::string base = "realm:m=" + std::to_string(m) + ",t=0,q=" + std::to_string(q);
      const auto mre = err::monte_carlo(*mult::make_multiplier(base, 16), mco);
      const auto mse = err::monte_carlo(*mult::make_multiplier(base + ",mse=1", 16), mco);
      // How many hardwired entries actually differ after quantization?
      const core::SegmentLut lut_mre{m, q, core::Formulation::kMeanRelativeError};
      const core::SegmentLut lut_mse{m, q, core::Formulation::kMeanSquareError};
      int diffs = 0;
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < m; ++j) {
          if (lut_mre.units(i, j) != lut_mse.units(i, j)) ++diffs;
        }
      }
      std::printf("REALM%-7d %3d %+10.3f %10.3f %+10.3f %10.3f %8d/%d\n", m, q,
                  mre.bias, mre.mean, mse.bias, mse.mean, diffs, m * m);
    }
  }
  std::printf("(at q=6 the two formulations quantize to nearly the same hardwired\n"
              " constants — the paper's future-work variant is almost free to swap in)\n");

  std::printf("\n(c) power model: functional toggles vs unit-delay glitch counting\n");
  std::printf("%-18s %16s %16s %8s\n", "design", "functional", "glitch-aware",
              "ratio");
  for (const char* spec : {"accurate", "calm", "realm:m=16,t=0", "drum:k=6", "ssm:m=8"}) {
    const hw::Module mod = hw::build_circuit(spec, 16);
    hw::StimulusProfile func;
    func.cycles = args.cycles / 2;
    hw::StimulusProfile glitch = func;
    glitch.count_glitches = true;
    const double pf = hw::estimate_power(mod, func).total();
    const double pg = hw::estimate_power(mod, glitch).total();
    std::printf("%-18s %16.1f %16.1f %8.2f\n", spec, pf, pg, pg / pf);
  }
  std::printf("(ratios >1 are hazard amplification; ripple-carry chains inflate the\n"
              " glitch model, which is why the calibrated flow uses functional toggles)\n");

  std::printf("\n(d) JPEG: exact vs approximate dequantization (synthetic_cameraman, %dx%d)\n",
              args.image_size, args.image_size);
  const auto img = jpeg::synthetic_cameraman(args.image_size);
  std::printf("%-18s %14s %14s\n", "design", "dequant=exact", "dequant=approx");
  for (const char* spec : {"realm:m=16,t=8", "realm:m=16,t=0", "mbm:t=0", "calm"}) {
    const auto mul = mult::make_multiplier(spec, 16);
    jpeg::CodecOptions a;
    a.mul = mul.get();
    jpeg::CodecOptions b = a;
    b.approximate_dequant = true;
    std::printf("%-18s %14.2f %14.2f\n", spec,
                jpeg::psnr(img, jpeg::roundtrip(img, a)),
                jpeg::psnr(img, jpeg::roundtrip(img, b)));
  }
  std::printf("(the power-of-two-rich dequant constants excite the log multipliers'\n"
              " x=0 ridge; constant multipliers in hardware avoid the general datapath)\n");

  std::printf("\n(e) fraction-adder architecture in the cALM datapath (function-neutral)\n");
  std::printf("%-14s %12s %12s %10s\n", "adder", "area um^2", "delay ps", "depth");
  for (const auto& [label, spec] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"ripple", "calm"}, {"kogge-stone", "calm:adder=1"}}) {
    const hw::Module mod = hw::build_circuit(spec, 16);
    const auto t = hw::analyze_timing(mod);
    std::printf("%-14s %12.1f %12.0f %10d\n", label, mod.area_um2(),
                t.critical_path_ps, t.logic_depth);
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
