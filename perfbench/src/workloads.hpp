// The four workloads.  README.md in this directory says what each runs and
// why it was chosen.

#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"
#include "compute.hpp"

namespace pb {

[[nodiscard]] std::unique_ptr<ComputeWorkload> make_table1_sweep(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<ComputeWorkload> make_exact_band(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<ComputeWorkload> make_jpeg_table2(std::uint64_t seed);

/// serve_mixed is open loop over a live server, not a pass loop.
[[nodiscard]] Report run_serve_mixed(const Options& opt, Tracer& tracer);

}  // namespace pb
