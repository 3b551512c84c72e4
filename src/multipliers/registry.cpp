#include "realm/multipliers/registry.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "realm/core/lut.hpp"
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

namespace realm::mult {

namespace {

struct Param {
  std::string_view key;
  std::optional<int> fallback = std::nullopt;  // default; none: key required
  // Values outside [lo, hi] are rejected here, so the model factory and the
  // circuit builders see the same width-independent ranges; the
  // constructors check the ranges that depend on the operand width.
  int lo = std::numeric_limits<int>::min();
  int hi = std::numeric_limits<int>::max();
};

constexpr int kIntMax = std::numeric_limits<int>::max();

// Every design's parameters, their defaults and their width-independent
// ranges, for make_multiplier and hw::build_circuit alike; neither keeps a
// default of its own.  q, the quantization of the REALM LUT and of MBM's
// correction constant, and REALM's segment count M take the bounds of
// core/lut.hpp.  The truncation t is checked where its width-dependent upper
// bound is: in the constructors and the builders.
const std::map<std::string, std::vector<Param>, std::less<>>& design_params() {
  static const std::map<std::string, std::vector<Param>, std::less<>> table{
      {"accurate", {}},
      {"calm", {{"t", 0}}},
      {"realm", {{"m", 16, 2, core::kMaxLutM}, {"t", 0}, {"q", 6, 3, core::kMaxLutQ}}},
      {"mbm", {{"t", 0}, {"q", 6, 3, core::kMaxLutQ}}},
      {"alm-soa", {{"m", std::nullopt, 0, kIntMax}}},
      {"alm-maa", {{"m", std::nullopt, 0, kIntMax}}},
      {"implm", {}},
      {"drum", {{"k", std::nullopt, 3, kIntMax}}},
      {"ssm", {{"m", std::nullopt, 1, kIntMax}}},
      {"essm", {{"m", std::nullopt, 1, kIntMax}}},
      {"am1", {{"nb", std::nullopt, 0, kIntMax}}},
      {"am2", {{"nb", std::nullopt, 0, kIntMax}}},
      {"intalp", {{"l", 2, 1, 2}}},
  };
  return table;
}

}  // namespace

SpecParams parse_spec(const std::string& spec) {
  // Design names and keys are case-insensitive; values are digits.
  std::string text = spec;
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  SpecParams out;
  const auto colon = text.find(':');
  out.design = text.substr(0, colon);
  const auto design = design_params().find(out.design);
  if (design == design_params().end()) {
    throw std::invalid_argument("spec: unknown design '" + out.design + "'");
  }
  const std::vector<Param>& params = design->second;

  // ';' is accepted as a parameter separator so CSV-safe specs round-trip.
  std::string rest = colon == std::string::npos ? "" : text.substr(colon + 1);
  std::replace(rest.begin(), rest.end(), ';', ',');
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const auto comma = rest.find(',', pos);
    const std::string kv =
        rest.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("spec: malformed parameter in '" + spec + "'");
    }
    const std::string key = kv.substr(0, eq);
    const auto param = std::find_if(params.begin(), params.end(),
                                    [&](const Param& p) { return p.key == key; });
    if (param == params.end()) {
      throw std::invalid_argument("spec: design '" + out.design + "' has no parameter '" +
                                  key + "'");
    }
    // The whole value must be one in-range int ("16x" is not 16); any other
    // value is a malformed spec, so callers see std::invalid_argument.
    const char* first = kv.data() + eq + 1;
    const char* last = kv.data() + kv.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || end != last || value < param->lo || value > param->hi) {
      throw std::invalid_argument("spec: bad value for '" + key + "' in '" + spec + "'");
    }
    if (!out.params.emplace(key, value).second) {
      throw std::invalid_argument("spec: '" + key + "' repeated in '" + spec + "'");
    }
    pos = comma == std::string::npos ? rest.size() : comma + 1;
  }
  for (const Param& p : params) {
    const std::string key{p.key};
    if (out.params.contains(key)) continue;
    if (!p.fallback) {
      throw std::invalid_argument("spec: design '" + out.design +
                                  "' requires parameter '" + key + "'");
    }
    out.params.emplace(key, *p.fallback);
  }
  return out;
}

std::string canonical_spec(const std::string& spec) {
  const SpecParams s = parse_spec(spec);
  std::string out = s.design;
  char separator = ':';
  for (const auto& [key, value] : s.params) {
    out += separator;
    out += key;
    out += '=';
    out += std::to_string(value);
    separator = ',';
  }
  return out;
}

core::RealmConfig realm_config(const SpecParams& spec, int n) {
  const auto& p = spec.params;
  core::RealmConfig cfg;
  cfg.n = n;
  cfg.m = p.at("m");
  cfg.t = p.at("t");
  cfg.q = p.at("q");
  return cfg;
}

std::unique_ptr<Multiplier> make_multiplier(const std::string& spec, int n) {
  const SpecParams s = parse_spec(spec);
  const auto& p = s.params;
  if (s.design == "accurate") return std::make_unique<AccurateMultiplier>(n);
  if (s.design == "calm") {
    return std::make_unique<MitchellMultiplier>(n, p.at("t"));
  }
  if (s.design == "realm") {
    return std::make_unique<core::RealmMultiplier>(realm_config(s, n));
  }
  if (s.design == "mbm") return std::make_unique<MbmMultiplier>(n, p.at("t"), p.at("q"));
  if (s.design == "alm-soa") {
    return std::make_unique<AlmMultiplier>(n, p.at("m"), AlmAdder::kSetOne);
  }
  if (s.design == "alm-maa") {
    return std::make_unique<AlmMultiplier>(n, p.at("m"), AlmAdder::kLowerOr);
  }
  if (s.design == "implm") return std::make_unique<ImplmMultiplier>(n);
  if (s.design == "drum") return std::make_unique<DrumMultiplier>(n, p.at("k"));
  if (s.design == "ssm") return std::make_unique<SsmMultiplier>(n, p.at("m"));
  if (s.design == "essm") return std::make_unique<EssmMultiplier>(n, p.at("m"));
  if (s.design == "am1") {
    return std::make_unique<AmMultiplier>(n, p.at("nb"), AmVariant::kAm1);
  }
  if (s.design == "am2") {
    return std::make_unique<AmMultiplier>(n, p.at("nb"), AmVariant::kAm2);
  }
  if (s.design == "intalp") return std::make_unique<IntAlpMultiplier>(n, p.at("l"));
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
