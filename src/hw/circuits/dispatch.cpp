#include <functional>
#include <map>

#include "builders.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/multipliers/registry.hpp"

namespace realm::hw {

namespace {

using Spec = const mult::SpecParams&;
using Builder = Module (*)(Spec, int n);
using enum mult::AlmAdder;
using enum mult::AmVariant;

int at(Spec s, const char* key) { return s.params.at(key); }

Module alm(int n, int m, mult::AlmAdder adder) {
  return build_log_multiplier({.n = n, .approx_adder_bits = m, .approx_adder = adder});
}

// One netlist builder per family of mult::parse_spec()'s table.  A literal
// table rather than static-initializer self-registration: realm_hw is a
// static library, and the linker drops an object file nothing references.
const std::map<std::string, Builder, std::less<>>& builders() {
  static const std::map<std::string, Builder, std::less<>> table{
      {"accurate", [](Spec, int n) { return build_accurate(n); }},
      {"calm",
       [](Spec s, int n) { return build_log_multiplier({.n = n, .t = at(s, "t")}); }},
      {"realm", [](Spec s, int n) { return build_realm(mult::realm_config(s, n)); }},
      {"mbm",
       [](Spec s, int n) {
         return build_log_multiplier(
             {.n = n, .t = at(s, "t"), .mbm_correction = true, .q = at(s, "q")});
       }},
      {"alm-soa", [](Spec s, int n) { return alm(n, at(s, "m"), kSetOne); }},
      {"alm-maa", [](Spec s, int n) { return alm(n, at(s, "m"), kLowerOr); }},
      {"implm", [](Spec, int n) { return build_implm(n); }},
      {"drum", [](Spec s, int n) { return build_drum(n, at(s, "k")); }},
      {"ssm", [](Spec s, int n) { return build_ssm(n, at(s, "m")); }},
      {"essm", [](Spec s, int n) { return build_essm(n, at(s, "m")); }},
      {"am1", [](Spec s, int n) { return build_am(n, at(s, "nb"), kAm1); }},
      {"am2", [](Spec s, int n) { return build_am(n, at(s, "nb"), kAm2); }},
      {"intalp", [](Spec s, int n) { return build_intalp(n, at(s, "l")); }},
  };
  return table;
}

}  // namespace

Module build_circuit(const std::string& spec, int n) {
  Module m = build_circuit_unpruned(spec, n);
  m.prune();
  return m;
}

Module build_circuit_unpruned(const std::string& spec, int n) {
  // The model's constructor is the one home of each width rule; building the
  // model costs a small fraction of the netlist and rejects what it rejects.
  (void)mult::make_multiplier(spec, n);
  const mult::SpecParams s = mult::parse_spec(spec);
  return builders().at(s.design)(s, n);
}

}  // namespace realm::hw
