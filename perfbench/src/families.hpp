// Constants the workloads share and the spec -> family mapping the
// per-family kernel metrics are keyed by.

#pragma once

#include <string>

namespace pb {

/// Operand width of every workload (the paper's 16-bit designs).
inline constexpr int kWidth = 16;

/// Engine parallelism.  Fixed, never 0 (= all cores): the work is then the
/// same on any host, and the serving loop, its executors and the load
/// generator fit beside it on a 4-core machine.
inline constexpr int kEngineThreads = 2;

/// Family of a registry spec: the design name without its parameters, with
/// the two ALM adders, the two AM variants and SSM/ESSM folded together.
[[nodiscard]] inline std::string family_of(const std::string& spec) {
  const std::string design = spec.substr(0, spec.find(':'));
  if (design.rfind("alm", 0) == 0) return "alm";
  if (design == "am1" || design == "am2") return "am";
  if (design == "essm") return "ssm";
  return design;
}

}  // namespace pb
