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
  if (s.design == "accurate") return build_accurate(n);
  if (s.design == "calm" || s.design == "mitchell") {
    LogMultOptions o;
    o.n = n;
    o.t = s.get("t", 0);
    const int adder = s.get("adder", 0);
    if (adder != 0 && adder != 1) {
      throw std::invalid_argument("spec: adder must be 0 (ripple) or 1 (kogge-stone)");
    }
    o.fraction_adder = static_cast<AdderArch>(adder);
    return build_log_multiplier(o);
  }
  if (s.design == "mbm") {
    LogMultOptions o;
    o.n = n;
    o.t = s.get("t", 0);
    o.q = s.get("q", 6);
    o.forced_one = true;
    o.mbm_correction = true;
    return build_log_multiplier(o);
  }
  if (s.design == "alm-soa" || s.design == "alm-maa") {
    LogMultOptions o;
    o.n = n;
    o.approx_adder_bits = s.require("m");
    o.approx_adder = s.design == "alm-soa" ? mult::AlmAdder::kSetOne
                                           : mult::AlmAdder::kLowerOr;
    return build_log_multiplier(o);
  }
  if (s.design == "realm") {
    core::RealmConfig cfg;
    cfg.n = n;
    cfg.m = s.get("m", 16);
    cfg.t = s.get("t", 0);
    cfg.q = s.get("q", 6);
    cfg.formulation = s.get("mse", 0) != 0 ? core::Formulation::kMeanSquareError
                                           : core::Formulation::kMeanRelativeError;
    return build_realm(cfg);
  }
  if (s.design == "implm") return build_implm(n);
  if (s.design == "drum") return build_drum(n, s.require("k"));
  if (s.design == "ssm") return build_ssm(n, s.require("m"));
  if (s.design == "essm") return build_essm(n, s.require("m"));
  if (s.design == "am1") return build_am(n, s.require("nb"), mult::AmVariant::kAm1);
  if (s.design == "am2") return build_am(n, s.require("nb"), mult::AmVariant::kAm2);
  if (s.design == "intalp") return build_intalp(n, s.get("l", 2));
  if (s.design == "udm") return build_udm(n);
  if (s.design == "trunc") return build_truncated(n, s.require("drop"));
  throw std::invalid_argument("build_circuit: unknown design '" + s.design + "'");
}

}  // namespace realm::hw
