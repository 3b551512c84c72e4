// Gate-level netlist with construction-time constant folding.
//
// A Module is a combinational netlist over the cell set of
// cell_library.hpp.  Nets are dense integer ids; net 0 and net 1 are the
// constant rails.  Gates may only reference already-existing nets, so the
// creation order is a valid topological order and the simulator can
// evaluate in one pass without levelization — structural builders cannot
// express a combinational loop.
//
// gate() folds constants aggressively (and(a,0) = 0, xor(a,1) = ~a,
// mux(s,d,d) = d, ...).  This matters for fidelity, not just speed: the
// paper's REALM lookup table is an M²:1 multiplexer with *constant* inputs,
// and its "little overhead" claim rests on synthesis shrinking exactly these
// structures.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "realm/hw/cell_library.hpp"

namespace realm::hw {

using NetId = std::uint32_t;
inline constexpr NetId kConst0 = 0;
inline constexpr NetId kConst1 = 1;

/// A bundle of nets, least-significant bit first.
using Bus = std::vector<NetId>;

struct Gate {
  GateKind kind;
  std::array<NetId, 3> in;  // unused pins = kConst0
  NetId out;
};

/// The logic function of each cell: the one truth table every bitwise
/// evaluator shares (the scalar and 64-lane simulators).  Lane-wise over the
/// bits of W, so a 64-bit word evaluates 64 independent input vectors at
/// once; scalar callers hold each net in bit 0 and mask the result to it.
/// Inputs are the gate's pins in order, with mux pins ordered (d0, d1, sel);
/// unused pins are ignored.
template <typename W>
[[nodiscard]] constexpr W gate_value(GateKind kind, W a, W b, W c) noexcept {
  switch (kind) {
    case GateKind::kInv: return static_cast<W>(~a);
    case GateKind::kBuf: return a;
    case GateKind::kAnd2: return static_cast<W>(a & b);
    case GateKind::kOr2: return static_cast<W>(a | b);
    case GateKind::kNand2: return static_cast<W>(~(a & b));
    case GateKind::kNor2: return static_cast<W>(~(a | b));
    case GateKind::kXor2: return static_cast<W>(a ^ b);
    case GateKind::kXnor2: return static_cast<W>(~(a ^ b));
    case GateKind::kMux2: return static_cast<W>((c & b) | (~c & a));
  }
  return 0;
}

struct PortInfo {
  std::string name;
  Bus bus;
};

class Module {
 public:
  explicit Module(std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Declares a width-bit input port; returns its bus (LSB first).
  Bus add_input(const std::string& port, int width);

  /// Declares a width-bit output port driven by `bus`.
  void add_output(const std::string& port, const Bus& bus);

  /// Constant bus holding `value` in `width` bits.
  [[nodiscard]] Bus constant(std::uint64_t value, int width) const;

  /// Core gate constructor with constant folding; returns the output net.
  NetId gate(GateKind kind, NetId a, NetId b = kConst0, NetId c = kConst0);

  // Ergonomic wrappers.
  NetId inv(NetId a) { return gate(GateKind::kInv, a); }
  NetId buf(NetId a) { return gate(GateKind::kBuf, a); }
  NetId and2(NetId a, NetId b) { return gate(GateKind::kAnd2, a, b); }
  NetId or2(NetId a, NetId b) { return gate(GateKind::kOr2, a, b); }
  NetId nand2(NetId a, NetId b) { return gate(GateKind::kNand2, a, b); }
  NetId nor2(NetId a, NetId b) { return gate(GateKind::kNor2, a, b); }
  NetId xor2(NetId a, NetId b) { return gate(GateKind::kXor2, a, b); }
  NetId xnor2(NetId a, NetId b) { return gate(GateKind::kXnor2, a, b); }
  /// out = sel ? d1 : d0.
  NetId mux(NetId sel, NetId d0, NetId d1) { return gate(GateKind::kMux2, d0, d1, sel); }

  [[nodiscard]] const std::vector<Gate>& gates() const noexcept { return gates_; }
  [[nodiscard]] const std::vector<PortInfo>& inputs() const noexcept { return inputs_; }
  [[nodiscard]] const std::vector<PortInfo>& outputs() const noexcept { return outputs_; }
  [[nodiscard]] NetId net_count() const noexcept { return next_net_; }

  /// Total cell area in µm² (pre-calibration).
  [[nodiscard]] double area_um2() const noexcept;

  /// Gate population per kind (for reports and tests).
  [[nodiscard]] std::array<std::uint32_t, kGateKindCount> gate_histogram() const noexcept;

  /// Dead-code elimination: removes gates outside the fanin cone of the
  /// declared outputs (net ids are preserved).  Mirrors the pruning a
  /// synthesis tool applies — without it, partially-consumed shifters and
  /// constant LUTs would be charged for logic real hardware never builds.
  /// Returns the number of gates removed.
  std::size_t prune();

 private:
  NetId new_net();

  std::string name_;
  NetId next_net_ = 2;  // 0 and 1 are the constant rails
  std::vector<Gate> gates_;
  std::vector<PortInfo> inputs_;
  std::vector<PortInfo> outputs_;
  // Structural hashing: (kind, in0, in1, in2) -> existing output net, so
  // identical subexpressions share one gate as they would after synthesis.
  std::unordered_map<std::uint64_t, NetId> strash_;
};

}  // namespace realm::hw
