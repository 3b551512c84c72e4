#include "realm/hw/verilog.hpp"

#include <sstream>
#include <stdexcept>

#include "realm/hw/simulator.hpp"
#include "realm/numeric/rng.hpp"

namespace realm::hw {
namespace {

std::string net_ref(NetId n) {
  if (n == kConst0) return "1'b0";
  if (n == kConst1) return "1'b1";
  std::string ref{"n"};
  ref += std::to_string(n);
  return ref;
}

}  // namespace

std::string to_verilog(const Module& module) {
  std::ostringstream os;
  os << "// Auto-generated structural netlist: " << module.name() << "\n";
  os << "// Cells follow a generic 45nm-class library (see verilog_cell_models()).\n";
  os << "module " << module.name() << " (";
  bool first = true;
  for (const auto& p : module.inputs()) {
    os << (first ? "" : ", ") << "input [" << p.bus.size() - 1 << ":0] " << p.name;
    first = false;
  }
  for (const auto& p : module.outputs()) {
    os << (first ? "" : ", ") << "output [" << p.bus.size() - 1 << ":0] " << p.name;
    first = false;
  }
  os << ");\n";

  // Wire declarations + input unpacking.
  for (const auto& g : module.gates()) os << "  wire " << net_ref(g.out) << ";\n";
  for (const auto& p : module.inputs()) {
    for (std::size_t i = 0; i < p.bus.size(); ++i) {
      os << "  wire " << net_ref(p.bus[i]) << " = " << p.name << "[" << i << "];\n";
    }
  }

  // Cell instances.
  std::size_t inst = 0;
  for (const auto& g : module.gates()) {
    const CellSpec& spec = cell_spec(g.kind);
    os << "  " << spec.name << " g" << inst++ << " (";
    if (g.kind == GateKind::kMux2) {
      os << ".A(" << net_ref(g.in[0]) << "), .B(" << net_ref(g.in[1]) << "), .S("
         << net_ref(g.in[2]) << ")";
    } else if (spec.fanin == 1) {
      os << ".A(" << net_ref(g.in[0]) << ")";
    } else {
      os << ".A(" << net_ref(g.in[0]) << "), .B(" << net_ref(g.in[1]) << ")";
    }
    os << ", .Y(" << net_ref(g.out) << "));\n";
  }

  // Output packing.
  for (const auto& p : module.outputs()) {
    for (std::size_t i = 0; i < p.bus.size(); ++i) {
      os << "  assign " << p.name << "[" << i << "] = " << net_ref(p.bus[i]) << ";\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

std::string to_verilog_testbench(const Module& module, int vectors,
                                 std::uint64_t seed) {
  if (vectors < 1) throw std::invalid_argument("to_verilog_testbench: vectors >= 1");
  Simulator sim{module};
  num::Xoshiro256 rng{seed};
  const auto& ins = module.inputs();
  const auto& outs = module.outputs();

  std::ostringstream os;
  os << "// Self-checking testbench for " << module.name() << " — expected\n";
  os << "// outputs precomputed by the realm gate-level simulator.\n";
  os << "module tb_" << module.name() << ";\n";
  for (const auto& p : ins) {
    os << "  reg [" << p.bus.size() - 1 << ":0] " << p.name << ";\n";
  }
  for (const auto& p : outs) {
    os << "  wire [" << p.bus.size() - 1 << ":0] " << p.name << ";\n";
  }
  os << "  integer errors = 0;\n";
  os << "  " << module.name() << " dut (";
  bool first = true;
  for (const auto& p : ins) {
    os << (first ? "" : ", ") << "." << p.name << "(" << p.name << ")";
    first = false;
  }
  for (const auto& p : outs) {
    os << (first ? "" : ", ") << "." << p.name << "(" << p.name << ")";
    first = false;
  }
  os << ");\n";

  os << "  task check(input [63:0] expect_" << outs.front().name << ");\n";
  os << "    begin\n";
  os << "      #1;\n";
  os << "      if (" << outs.front().name << " !== expect_" << outs.front().name
     << ") begin\n";
  os << "        $display(\"MISMATCH: " << outs.front().name
     << "=%h expected=%h\", " << outs.front().name << ", expect_"
     << outs.front().name << ");\n";
  os << "        errors = errors + 1;\n";
  os << "      end\n";
  os << "    end\n";
  os << "  endtask\n";
  os << "  initial begin\n";
  for (int v = 0; v < vectors; ++v) {
    std::vector<std::uint64_t> values(ins.size());
    for (std::size_t p = 0; p < ins.size(); ++p) {
      values[p] = rng.below(std::uint64_t{1} << ins[p].bus.size());
      sim.set_input(p, values[p]);
      os << "    " << ins[p].name << " = " << ins[p].bus.size() << "'d" << values[p]
         << "; ";
    }
    sim.eval();
    os << "check(64'd" << sim.output(0) << ");\n";
  }
  os << "    if (errors == 0) $display(\"PASS: " << vectors << " vectors on "
     << module.name() << "\");\n";
  os << "    else begin $display(\"FAIL: %0d mismatches\", errors); $fatal; end\n";
  os << "    $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

std::string verilog_cell_models() {
  return R"(// Behavioral models of the 45nm-class cells used by emitted netlists.
module INV_X1   (input A, output Y); assign Y = ~A;       endmodule
module BUF_X1   (input A, output Y); assign Y = A;        endmodule
module AND2_X1  (input A, input B, output Y); assign Y = A & B;    endmodule
module OR2_X1   (input A, input B, output Y); assign Y = A | B;    endmodule
module NAND2_X1 (input A, input B, output Y); assign Y = ~(A & B); endmodule
module NOR2_X1  (input A, input B, output Y); assign Y = ~(A | B); endmodule
module XOR2_X1  (input A, input B, output Y); assign Y = A ^ B;    endmodule
module XNOR2_X1 (input A, input B, output Y); assign Y = ~(A ^ B); endmodule
module MUX2_X1  (input A, input B, input S, output Y); assign Y = S ? B : A; endmodule
)";
}

}  // namespace realm::hw
