// Error explorer: full characterization of one design — metrics, error
// distribution (ASCII + CSV), and the Fig. 1-style error surface CSV.
//
//   $ ./error_explorer realm:m=8,t=4

#include <cstdio>
#include <fstream>
#include <string>

#include "realm/realm.hpp"

int main(int argc, char** argv) {
  using namespace realm;
  const std::string spec = argc > 1 ? argv[1] : "realm:m=8,t=0";
  const auto model = mult::make_multiplier(spec, 16);

  err::MonteCarloOptions opts;
  opts.samples = 1 << 21;
  err::Histogram hist{-12.0, 12.0, 120};
  const auto metrics = err::monte_carlo(*model, opts, &hist);
  std::printf("%s\n%s\n\n", model->name().c_str(), metrics.summary().c_str());

  // ASCII distribution.
  double peak = 0.0;
  for (int b = 0; b < hist.bins(); ++b) peak = std::max(peak, hist.density(b));
  for (int row = 8; row >= 1; --row) {
    std::printf("|");
    for (int b = 0; b < hist.bins(); ++b) {
      std::putchar(hist.density(b) >= peak * row / 8 ? '#' : ' ');
    }
    std::printf("|\n");
  }
  std::printf("-12%%%*s+12%%\n\n", hist.bins() - 6, "");

  std::string file = spec;
  for (auto& ch : file) {
    if (ch == ':' || ch == ',' || ch == '=') ch = '_';
  }
  {
    std::ofstream os{file + "_distribution.csv"};
    os << hist.to_csv();
  }
  {
    std::ofstream os{file + "_profile.csv"};
    os << err::profile_to_csv(err::error_profile(*model, 32, 255));
  }
  std::printf("wrote %s_distribution.csv and %s_profile.csv\n", file.c_str(),
              file.c_str());
  return 0;
}
