#include <stdexcept>

#include "realm/hw/circuits.hpp"
#include "realm/multipliers/registry.hpp"

namespace realm::hw {

namespace {

Module pruned(Module m) {
  m.prune();
  return m;
}

}  // namespace

Module build_circuit(const std::string& spec, int n) {
  return pruned(build_circuit_unpruned(spec, n));
}

Module build_circuit_unpruned(const std::string& spec, int n) {
  const mult::SpecParams s = mult::parse_spec(spec);
  const auto& p = s.params;
  if (s.design == "accurate") return build_accurate(n);
  LogMultOptions o;
  o.n = n;
  if (s.design == "calm") {
    o.t = p.at("t");
    return build_log_multiplier(o);
  }
  if (s.design == "mbm") {
    o.t = p.at("t");
    o.q = p.at("q");
    o.forced_one = true;
    o.mbm_correction = true;
    return build_log_multiplier(o);
  }
  if (s.design == "alm-soa" || s.design == "alm-maa") {
    o.approx_adder_bits = p.at("m");
    o.approx_adder = s.design == "alm-soa" ? mult::AlmAdder::kSetOne
                                           : mult::AlmAdder::kLowerOr;
    return build_log_multiplier(o);
  }
  if (s.design == "realm") return build_realm(mult::realm_config(s, n));
  if (s.design == "implm") return build_implm(n);
  if (s.design == "drum") return build_drum(n, p.at("k"));
  if (s.design == "ssm") return build_ssm(n, p.at("m"));
  if (s.design == "essm") return build_essm(n, p.at("m"));
  if (s.design == "am1") return build_am(n, p.at("nb"), mult::AmVariant::kAm1);
  if (s.design == "am2") return build_am(n, p.at("nb"), mult::AmVariant::kAm2);
  if (s.design == "intalp") return build_intalp(n, p.at("l"));
  throw std::invalid_argument("build_circuit: unknown design '" + s.design + "'");
}

}  // namespace realm::hw
