#include "realm/dse/design_point.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string_view>

namespace realm::dse {

bool DesignPoint::is_realm() const {
  // The design name before ':', case-insensitive as in mult::parse_spec.
  const std::string_view design = std::string_view{spec}.substr(0, spec.find(':'));
  return std::ranges::equal(design, std::string_view{"realm"},
                            [](unsigned char c, char r) { return std::tolower(c) == r; });
}

std::string design_points_csv_header() {
  return "spec,name,bias_pct,mean_error_pct,min_error_pct,max_error_pct,variance,"
         "peak_error_pct,area_um2,power_uw,area_reduction_pct,power_reduction_pct";
}

std::string DesignPoint::to_csv_row() const {
  // Spec strings use ',' between parameters; serialize with ';' so the CSV
  // stays rectangular (parse_spec accepts either separator on the way back).
  std::string safe_spec = spec;
  for (char& c : safe_spec) {
    if (c == ',') c = ';';
  }
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "%s,\"%s\",%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.1f,%.1f,%.2f,%.2f",
                safe_spec.c_str(), name.c_str(), error.bias, error.mean, error.min,
                error.max, error.variance, error.peak(), cost.area_um2, cost.power_uw,
                area_reduction_pct, power_reduction_pct);
  return buf;
}

}  // namespace realm::dse
