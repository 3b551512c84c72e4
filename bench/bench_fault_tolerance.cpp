// Fault-tolerance study: how much does a single stuck-at defect move the
// product, per design?  Approximate-computing folklore says approximate
// datapaths degrade gracefully; the numbers below test that folklore on the
// actual Table I circuits.  Campaigns run on the 64-lane packed fault
// simulator (63 sites per netlist sweep), so the per-design budget that used
// to dominate this bench is now a footnote.

#include <cstdio>

#include "bench_common.hpp"
#include "realm/campaign/cached_eval.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  const bench::Campaign camp = bench::open_campaign(args);
  const int vectors =
      static_cast<int>(args.vectors != 0 ? args.vectors : args.cycles / 4);

  std::printf("Single stuck-at fault impact (%d vectors/site, <=1500 sites/design)\n",
              vectors);
  std::printf("%-18s %8s %12s %14s %14s\n", "design", "gates", "undetected",
              "mean rel err", "worst rel err");
  bench::print_rule(72);
  for (const char* spec : {"accurate", "calm", "mbm:t=0", "realm:m=16,t=0",
                           "realm:m=4,t=9", "drum:k=6", "ssm:m=8"}) {
    // One campaign unit per design: a killed campaign resumes at the first
    // design whose sweep had not completed.
    const auto r = campaign::cached_fault_impact(camp.runner(), spec, 16, vectors,
                                                 0xFA, 1500, args.threads);
    std::printf("%-18s %8llu %8llu/%-4llu %13.4f %14.4f\n", spec,
                static_cast<unsigned long long>(r.gates),
                static_cast<unsigned long long>(r.sites_undetected),
                static_cast<unsigned long long>(r.sites_analyzed), r.mean_rel_error,
                r.worst_rel_error);
  }
  if (camp) {
    std::printf("campaign: %llu units resumed, %llu computed (store: %s)\n",
                static_cast<unsigned long long>(camp.campaign_runner->units_resumed()),
                static_cast<unsigned long long>(camp.campaign_runner->units_computed()),
                camp.store->path().c_str());
  }
  bench::print_rule(72);
  std::printf("reading: 'undetected' sites never flip an output on the sampled\n"
              "vectors (a sampling result, not a proof that no test exists);\n"
              "mean/worst are relative product errors over detected faults.\n"
              "Log-based datapaths concentrate catastrophic sites in the\n"
              "LOD/characteristic logic, while the Wallace tree spreads impact\n"
              "across many mid-weight sites.\n");
  return 0;
}
