// Fig. 5: relative-error distributions of REALM for M = {4, 8, 16} and
// t = {0, 6, 9}.  Prints an ASCII rendering of each histogram and writes the
// raw bins to CSV.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

namespace {

void ascii_histogram(const err::Histogram& h, int rows = 8) {
  // Collapse to 60 columns.
  const int cols = 60;
  const int per = h.bins() / cols;
  std::vector<double> density(static_cast<std::size_t>(cols), 0.0);
  double peak = 0.0;
  for (int c = 0; c < cols; ++c) {
    for (int b = c * per; b < (c + 1) * per && b < h.bins(); ++b) {
      density[static_cast<std::size_t>(c)] += h.density(b);
    }
    peak = std::max(peak, density[static_cast<std::size_t>(c)]);
  }
  for (int r = rows; r >= 1; --r) {
    std::printf("    |");
    for (int c = 0; c < cols; ++c) {
      std::putchar(density[static_cast<std::size_t>(c)] >= peak * r / rows ? '#' : ' ');
    }
    std::printf("|\n");
  }
  std::printf("    %+5.1f%%%*s%+5.1f%%\n", h.lo(), cols - 6, "", h.hi());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  err::MonteCarloOptions opts;
  opts.samples = args.samples / 4;
  opts.threads = args.threads;

  std::filesystem::create_directories("bench_out/fig5");
  std::printf("Fig. 5 — REALM relative-error distributions (%llu samples each)\n",
              static_cast<unsigned long long>(opts.samples));

  for (const int m : {16, 8, 4}) {
    for (const int t : {0, 6, 9}) {
      const std::string spec = "realm:m=" + std::to_string(m) + ",t=" + std::to_string(t);
      const auto model = mult::make_multiplier(spec, 16);
      err::Histogram hist{-8.0, 8.0, 240};
      const auto r = err::monte_carlo(*model, opts, &hist);
      std::printf("\n%s   %s\n", model->name().c_str(), r.summary().c_str());
      ascii_histogram(hist);

      std::string file = "bench_out/fig5/realm_m" + std::to_string(m) + "_t" +
                         std::to_string(t) + ".csv";
      std::ofstream os{file};
      os << hist.to_csv();
    }
  }
  std::printf("\nshape check vs Fig. 5: double-sided, near-centred distributions; the\n"
              "spread narrows as M grows; t=9 widens and displaces the shape slightly.\n");
  return 0;
}
