#include "realm/multipliers/registry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <stdexcept>

#include "realm/core/realm_multiplier.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/alm.hpp"
#include "realm/multipliers/am.hpp"
#include "realm/multipliers/drum.hpp"
#include "realm/multipliers/implm.hpp"
#include "realm/multipliers/intalp.hpp"
#include "realm/multipliers/mbm.hpp"
#include "realm/multipliers/mitchell.hpp"
#include "realm/multipliers/ssm.hpp"
#include "realm/multipliers/udm.hpp"

namespace realm::mult {

int SpecParams::get(const std::string& key, int fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

int SpecParams::require(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    throw std::invalid_argument("spec: design '" + design + "' requires parameter '" +
                                key + "'");
  }
  return it->second;
}

SpecParams parse_spec(const std::string& spec) {
  SpecParams out;
  const auto colon = spec.find(':');
  out.design = spec.substr(0, colon);
  std::transform(out.design.begin(), out.design.end(), out.design.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (colon == std::string::npos) return out;

  std::string rest = spec.substr(colon + 1);
  // ';' is accepted as a parameter separator so CSV-safe specs round-trip.
  std::replace(rest.begin(), rest.end(), ';', ',');
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const auto comma = rest.find(',', pos);
    const std::string kv =
        rest.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("make_multiplier: malformed parameter in '" + spec + "'");
    }
    std::string key = kv.substr(0, eq);
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    // The whole value must be one in-range int ("16x" is not 16); any other
    // value is a malformed spec, so callers see std::invalid_argument.
    const char* first = kv.data() + eq + 1;
    const char* last = kv.data() + kv.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || end != last) {
      throw std::invalid_argument("make_multiplier: bad value for '" + key + "' in '" +
                                  spec + "'");
    }
    out.params[key] = value;
    pos = comma == std::string::npos ? rest.size() : comma + 1;
  }
  return out;
}

std::unique_ptr<Multiplier> make_multiplier(const std::string& spec, int n) {
  const SpecParams s = parse_spec(spec);
  if (s.design == "accurate") return std::make_unique<AccurateMultiplier>(n);
  if (s.design == "calm" || s.design == "mitchell") {
    return std::make_unique<MitchellMultiplier>(n, s.get("t", 0));
  }
  if (s.design == "realm") {
    core::RealmConfig cfg;
    cfg.n = n;
    cfg.m = s.get("m", 16);
    cfg.t = s.get("t", 0);
    cfg.q = s.get("q", 6);
    cfg.formulation = s.get("mse", 0) != 0 ? core::Formulation::kMeanSquareError
                                           : core::Formulation::kMeanRelativeError;
    return std::make_unique<core::RealmMultiplier>(cfg);
  }
  if (s.design == "mbm") {
    return std::make_unique<MbmMultiplier>(n, s.get("t", 0), s.get("q", 6));
  }
  if (s.design == "alm-soa") {
    return std::make_unique<AlmMultiplier>(n, s.require("m"), AlmAdder::kSetOne);
  }
  if (s.design == "alm-maa") {
    return std::make_unique<AlmMultiplier>(n, s.require("m"), AlmAdder::kLowerOr);
  }
  if (s.design == "implm") return std::make_unique<ImplmMultiplier>(n);
  if (s.design == "drum") return std::make_unique<DrumMultiplier>(n, s.require("k"));
  if (s.design == "ssm") return std::make_unique<SsmMultiplier>(n, s.require("m"));
  if (s.design == "essm") return std::make_unique<EssmMultiplier>(n, s.require("m"));
  if (s.design == "am1") {
    return std::make_unique<AmMultiplier>(n, s.require("nb"), AmVariant::kAm1);
  }
  if (s.design == "am2") {
    return std::make_unique<AmMultiplier>(n, s.require("nb"), AmVariant::kAm2);
  }
  if (s.design == "intalp") {
    return std::make_unique<IntAlpMultiplier>(n, s.get("l", 2));
  }
  if (s.design == "udm") return std::make_unique<UdmMultiplier>(n);
  if (s.design == "trunc") {
    return std::make_unique<TruncatedMultiplier>(n, s.require("drop"));
  }
  throw std::invalid_argument("make_multiplier: unknown design '" + s.design + "'");
}

std::vector<std::string> table1_specs() {
  std::vector<std::string> specs;
  for (int m : {16, 8, 4}) {
    for (int t = 0; t <= 9; ++t) {
      specs.push_back("realm:m=" + std::to_string(m) + ",t=" + std::to_string(t));
    }
  }
  specs.emplace_back("calm");
  specs.emplace_back("implm");
  for (int t : {0, 2, 4, 6, 8, 9}) specs.push_back("mbm:t=" + std::to_string(t));
  for (int m : {3, 6, 9, 11, 12}) specs.push_back("alm-maa:m=" + std::to_string(m));
  for (int m : {3, 6, 9, 11, 12}) specs.push_back("alm-soa:m=" + std::to_string(m));
  specs.emplace_back("intalp:l=2");
  specs.emplace_back("intalp:l=1");
  for (int nb : {13, 9, 5}) specs.push_back("am1:nb=" + std::to_string(nb));
  for (int nb : {13, 9, 5}) specs.push_back("am2:nb=" + std::to_string(nb));
  for (int k : {8, 7, 6, 5, 4}) specs.push_back("drum:k=" + std::to_string(k));
  for (int m : {10, 9, 8}) specs.push_back("ssm:m=" + std::to_string(m));
  specs.emplace_back("essm:m=8");
  return specs;
}

std::vector<std::string> table2_specs() {
  return {"realm:m=16,t=8", "realm:m=8,t=8", "realm:m=4,t=8", "mbm:t=0",
          "calm",           "implm",         "intalp:l=1",    "alm-soa:m=11"};
}

std::vector<std::string> fig1_specs() {
  return {"calm", "alm-soa:m=11", "implm", "mbm:t=0", "intalp:l=1", "realm:m=16,t=0"};
}

}  // namespace realm::mult
