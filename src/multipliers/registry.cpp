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
  int lo = std::numeric_limits<int>::min();
  int hi = std::numeric_limits<int>::max();
};

using Spec = const SpecParams&;
using Model = std::unique_ptr<Multiplier>;
using enum AlmAdder;
using enum AmVariant;

int at(Spec s, const char* key) { return s.params.at(key); }

template <class T, class... Args>
Model model(Args... args) {
  return std::make_unique<T>(args...);
}

// One row per design family: its parameters, their defaults and their
// width-independent ranges, and the factory of its behavioral model, for
// make_multiplier and hw::build_circuit alike; neither keeps a default of its
// own.  q, the quantization of the REALM LUT and of MBM's correction
// constant, and REALM's segment count M take the bounds of core/lut.hpp.
// Every rule that depends on the operand width, t's upper bound among them,
// lives in the model's constructor alone: hw::build_circuit constructs the
// model through its row before it builds the netlist.
struct Family {
  std::vector<Param> params;
  Model (*make)(Spec, int n);
};

const std::map<std::string, Family, std::less<>>& families() {
  static const std::map<std::string, Family, std::less<>> table{
      {"accurate", {{}, [](Spec, int n) { return model<AccurateMultiplier>(n); }}},
      {"calm", {{{"t", 0}},
                [](Spec s, int n) { return model<MitchellMultiplier>(n, at(s, "t")); }}},
      {"realm",
       {{{"m", 16, 2, core::kMaxLutM}, {"t", 0}, {"q", 6, 3, core::kMaxLutQ}},
        [](Spec s, int n) { return model<core::RealmMultiplier>(realm_config(s, n)); }}},
      {"mbm",
       {{{"t", 0}, {"q", 6, 3, core::kMaxLutQ}},
        [](Spec s, int n) { return model<MbmMultiplier>(n, at(s, "t"), at(s, "q")); }}},
      {"alm-soa",
       {{{"m", std::nullopt, 0}},
        [](Spec s, int n) { return model<AlmMultiplier>(n, at(s, "m"), kSetOne); }}},
      {"alm-maa",
       {{{"m", std::nullopt, 0}},
        [](Spec s, int n) { return model<AlmMultiplier>(n, at(s, "m"), kLowerOr); }}},
      {"implm", {{}, [](Spec, int n) { return model<ImplmMultiplier>(n); }}},
      {"drum", {{{"k", std::nullopt, 3}},
                [](Spec s, int n) { return model<DrumMultiplier>(n, at(s, "k")); }}},
      {"ssm", {{{"m", std::nullopt, 1}},
               [](Spec s, int n) { return model<SsmMultiplier>(n, at(s, "m")); }}},
      {"essm", {{{"m", std::nullopt, 1}},
                [](Spec s, int n) { return model<EssmMultiplier>(n, at(s, "m")); }}},
      {"am1", {{{"nb", std::nullopt, 0}},
               [](Spec s, int n) { return model<AmMultiplier>(n, at(s, "nb"), kAm1); }}},
      {"am2", {{{"nb", std::nullopt, 0}},
               [](Spec s, int n) { return model<AmMultiplier>(n, at(s, "nb"), kAm2); }}},
      {"intalp", {{{"l", 2, 1, 2}},
                  [](Spec s, int n) { return model<IntAlpMultiplier>(n, at(s, "l")); }}},
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
  const auto family = families().find(out.design);
  if (family == families().end()) {
    throw std::invalid_argument("spec: unknown design '" + out.design + "'");
  }
  const std::vector<Param>& params = family->second.params;

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
  return families().at(s.design).make(s, n);
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
