#include "realm/hw/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::hw {
namespace {

void validate_campaign_args(const Module& module, int vectors, const char* who) {
  if (module.outputs().empty() || module.gates().empty()) {
    throw std::invalid_argument(std::string{who} + ": need gates and an output");
  }
  if (vectors <= 0) {
    throw std::invalid_argument(std::string{who} + ": need at least one vector");
  }
}

// Every stuck-at site: both polarities of each gate output, in gate order.
std::vector<FaultSite> all_sites(const Module& module) {
  std::vector<FaultSite> sites;
  sites.reserve(2 * module.gates().size());
  for (std::size_t gi = 0; gi < module.gates().size(); ++gi) {
    sites.push_back({gi, false});
    sites.push_back({gi, true});
  }
  return sites;
}

// One random input vector: each port uniform over its width.
std::vector<std::uint64_t> draw_vector(const Module& module, num::Xoshiro256& rng) {
  std::vector<std::uint64_t> vec(module.inputs().size());
  for (std::size_t p = 0; p < vec.size(); ++p) {
    vec[p] = rng.below(std::uint64_t{1} << module.inputs()[p].bus.size());
  }
  return vec;
}

// Replaces the simulator's forces with `count` (<= kFaultLanesPerSweep)
// sites, site j in lane j + 1; lane 0 stays the fault-free golden circuit.
void load_fault_lanes(PackedSimulator& sim, const FaultSite* sites, std::size_t count) {
  sim.clear_forces();
  for (std::size_t j = 0; j < count; ++j) {
    sim.force_gate(sites[j].gate_index, std::uint64_t{1} << (j + 1), sites[j].stuck_value);
  }
}

// Drives `vec` into every lane and sweeps; returns the golden (lane 0)
// output.  Lane j + 1 then holds the output under the j-th loaded site.
std::uint64_t eval_broadcast(PackedSimulator& sim, const std::vector<std::uint64_t>& vec) {
  for (std::size_t p = 0; p < vec.size(); ++p) sim.set_input_broadcast(p, vec[p]);
  sim.eval();
  return sim.output(0, 0);
}

struct Campaign {
  std::vector<FaultSite> sites;
  std::vector<std::vector<std::uint64_t>> stimulus;
};

// Site sampling and stimulus generation, shared by the packed engine and
// the scalar reference so both consume the seed's RNG stream identically
// (site sample first, then vectors).
Campaign plan_campaign(const Module& module, int vectors, std::uint64_t seed,
                       std::size_t max_sites) {
  Campaign c;
  c.sites = all_sites(module);
  num::Xoshiro256 rng{seed};
  if (c.sites.size() > max_sites) {
    // Seeded partial Fisher-Yates: the first max_sites entries are a sample.
    for (std::size_t i = 0; i < max_sites; ++i) {
      std::swap(c.sites[i], c.sites[i + rng.below(c.sites.size() - i)]);
    }
    c.sites.resize(max_sites);
  }
  c.stimulus.resize(static_cast<std::size_t>(vectors));
  for (auto& vec : c.stimulus) vec = draw_vector(module, rng);
  return c;
}

// Per-site statistics accumulated in stimulus order (the same accumulation
// order as the scalar reference, so the doubles match exactly).
struct SiteStats {
  int flips = 0;
  double err_sum = 0.0;
  double worst = 0.0;
};

FaultReport reduce_report(const Campaign& campaign, const std::vector<SiteStats>& stats,
                          int vectors) {
  FaultReport report;
  report.sites_analyzed = campaign.sites.size();
  std::vector<FaultImpact> impacts;
  impacts.reserve(campaign.sites.size());
  double detected_error_sum = 0.0;
  std::size_t detected = 0;
  for (std::size_t s = 0; s < campaign.sites.size(); ++s) {
    FaultImpact impact;
    impact.site = campaign.sites[s];
    impact.detect_rate = static_cast<double>(stats[s].flips) / static_cast<double>(vectors);
    impact.mean_rel_error = stats[s].err_sum / static_cast<double>(vectors);
    impact.worst_rel_error = stats[s].worst;
    if (stats[s].flips == 0) {
      ++report.sites_undetected;
    } else {
      detected_error_sum += impact.mean_rel_error;
      ++detected;
      report.worst_rel_error = std::max(report.worst_rel_error, impact.worst_rel_error);
    }
    impacts.push_back(impact);
  }
  report.mean_rel_error = detected > 0 ? detected_error_sum / static_cast<double>(detected) : 0.0;

  std::sort(impacts.begin(), impacts.end(), [](const FaultImpact& a, const FaultImpact& b) {
    return a.mean_rel_error > b.mean_rel_error;
  });
  impacts.resize(std::min<std::size_t>(impacts.size(), 10));
  report.worst_sites = std::move(impacts);
  return report;
}

}  // namespace

FaultReport analyze_fault_impact(const Module& module, int vectors, std::uint64_t seed,
                                 std::size_t max_sites, int threads) {
  validate_campaign_args(module, vectors, "analyze_fault_impact");
  const Campaign campaign = plan_campaign(module, vectors, seed, max_sites);

  // 63 fault lanes per sweep; lane 0 stays fault-free as the golden lane.
  const std::size_t group_size = kFaultLanesPerSweep;
  const std::size_t groups = (campaign.sites.size() + group_size - 1) / group_size;
  std::vector<SiteStats> stats(campaign.sites.size());

  num::ThreadPool::global().run(
      groups, threads,
      [&](std::size_t grp) {
        REALM_TRACE_SCOPE("faults/group");
        const std::size_t first = grp * group_size;
        const std::size_t count =
            std::min(group_size, campaign.sites.size() - first);
        PackedSimulator sim{module};
        load_fault_lanes(sim, campaign.sites.data() + first, count);
        for (const auto& vec : campaign.stimulus) {
          const std::uint64_t golden = eval_broadcast(sim, vec);
          const double dgolden = static_cast<double>(golden);
          const double denom = std::max(1.0, dgolden);
          for (std::size_t j = 0; j < count; ++j) {
            const std::uint64_t faulty = sim.output(0, static_cast<unsigned>(j + 1));
            SiteStats& st = stats[first + j];
            if (faulty != golden) ++st.flips;
            const double rel = std::fabs(static_cast<double>(faulty) - dgolden) / denom;
            st.err_sum += rel;
            st.worst = std::max(st.worst, rel);
          }
        }
        obs::counter_add(obs::Counter::kGateEvals,
                         campaign.stimulus.size() * module.gates().size());
        obs::counter_add(obs::Counter::kPackedBlocks, 1);
      });

  return reduce_report(campaign, stats, vectors);
}

FaultReport analyze_fault_impact_reference(const Module& module, int vectors,
                                           std::uint64_t seed, std::size_t max_sites) {
  validate_campaign_args(module, vectors, "analyze_fault_impact_reference");
  const Campaign campaign = plan_campaign(module, vectors, seed, max_sites);

  Simulator sim{module};
  std::vector<std::uint64_t> golden(campaign.stimulus.size());
  for (std::size_t v = 0; v < campaign.stimulus.size(); ++v) {
    golden[v] = sim.run(campaign.stimulus[v]);
  }

  std::vector<SiteStats> stats(campaign.sites.size());
  for (std::size_t s = 0; s < campaign.sites.size(); ++s) {
    const FaultSite& site = campaign.sites[s];
    sim.force_gate(site.gate_index, site.stuck_value);
    for (std::size_t v = 0; v < campaign.stimulus.size(); ++v) {
      const std::uint64_t faulty = sim.run(campaign.stimulus[v]);
      if (faulty != golden[v]) ++stats[s].flips;
      const double denom = std::max<double>(1.0, static_cast<double>(golden[v]));
      const double rel =
          std::fabs(static_cast<double>(faulty) - static_cast<double>(golden[v])) / denom;
      stats[s].err_sum += rel;
      stats[s].worst = std::max(stats[s].worst, rel);
    }
  }
  return reduce_report(campaign, stats, vectors);
}

}  // namespace realm::hw
