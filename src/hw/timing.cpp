#include "realm/hw/timing.hpp"

#include <algorithm>

namespace realm::hw {

TimingReport analyze_timing(const Module& module) {
  const auto& gates = module.gates();
  // Arrival time and depth per net; inputs/constants arrive at t = 0.
  std::vector<double> arrival(module.net_count(), 0.0);
  std::vector<int> depth(module.net_count(), 0);
  std::vector<std::ptrdiff_t> pred(module.net_count(), -1);  // driving gate index

  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const Gate& g = gates[gi];
    double worst = 0.0;
    int worst_depth = 0;
    const int fanin = cell_spec(g.kind).fanin;
    for (int pin = 0; pin < fanin; ++pin) {
      const NetId in = g.in[static_cast<std::size_t>(pin)];
      if (arrival[in] > worst || (arrival[in] == worst && depth[in] > worst_depth)) {
        worst = arrival[in];
        worst_depth = depth[in];
      }
    }
    arrival[g.out] = worst + cell_spec(g.kind).delay_ps;
    depth[g.out] = worst_depth + 1;
    pred[g.out] = static_cast<std::ptrdiff_t>(gi);
  }

  TimingReport report;
  NetId endpoint = kConst0;
  for (const auto& port : module.outputs()) {
    for (const NetId n : port.bus) {
      if (arrival[n] > report.critical_path_ps) {
        report.critical_path_ps = arrival[n];
        report.logic_depth = depth[n];
        endpoint = n;
      }
    }
  }

  // Walk the path backwards through worst-arrival pins.
  NetId cur = endpoint;
  while (cur != kConst0 && pred[cur] >= 0) {
    const auto gi = static_cast<std::size_t>(pred[cur]);
    report.path.push_back(gi);
    const Gate& g = gates[gi];
    const int fanin = cell_spec(g.kind).fanin;
    NetId next = kConst0;
    double best = -1.0;
    for (int pin = 0; pin < fanin; ++pin) {
      const NetId in = g.in[static_cast<std::size_t>(pin)];
      if (arrival[in] > best) {
        best = arrival[in];
        next = in;
      }
    }
    if (best <= 0.0) break;  // reached an input or constant
    cur = next;
  }
  std::reverse(report.path.begin(), report.path.end());
  return report;
}

}  // namespace realm::hw
