// 45 nm-class standard-cell model.
//
// The paper synthesizes with Cadence RTL Compiler and the TSMC 45 nm
// standard-cell library; neither is redistributable, so the hardware
// substrate uses a generic 45 nm-class cell set with areas/caps in the
// proportions of the open 45 nm libraries (NangateOpenCellLibrary-like).
// Absolute numbers are pinned by a single calibration against the paper's
// accurate-multiplier reference (1898.1 µm², 821.9 µW) in
// hw/circuits/cost_model.cpp; every reported result is a *relative*
// reduction, which this preserves.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace realm::hw {

enum class GateKind : std::uint8_t {
  kInv,
  kBuf,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kXnor2,
  kMux2,  // out = sel ? d1 : d0 ; inputs ordered (d0, d1, sel)
};

inline constexpr int kGateKindCount = 9;

struct CellSpec {
  std::string_view name;     ///< Verilog-emittable cell name
  int fanin;                 ///< number of input pins
  double area_um2;           ///< placement area
  double switch_energy_rel;  ///< per-output-toggle energy, relative units
  double leakage_rel;        ///< static power, relative units
  double delay_ps;           ///< typical propagation delay at nominal load
};

/// Cell data for a gate kind.
[[nodiscard]] const CellSpec& cell_spec(GateKind kind) noexcept;

/// All specs, indexed by static_cast<int>(GateKind).
[[nodiscard]] const std::array<CellSpec, kGateKindCount>& cell_specs() noexcept;

}  // namespace realm::hw
