// Factory for every multiplier design evaluated in the paper.
//
// Designs are addressed by compact spec strings, e.g.:
//   "accurate"          exact multiplier
//   "realm:m=16,t=4"    REALM16 with 4 truncated bits (q defaults to 6)
//   "calm"              Mitchell's classical design
//   "mbm:t=2"           MBM with t = 2
//   "alm-soa:m=11"      ALM with set-one adder, m approximate bits
//   "alm-maa:m=9"       ALM with lower-OR (MAA-class) adder
//   "implm"             ImpLM with exact adder
//   "drum:k=6"          DRUM with 6-bit fragments
//   "ssm:m=8"           SSM, "essm:m=8" ESSM8
//   "am1:nb=9", "am2:nb=13"
//   "intalp:l=2"
//
// Names and keys are case-insensitive, ';' separates parameters as well as
// ',', and an omitted key takes its default, so one design has many
// spellings: "realm", "REALM:T=0", "realm:m=16,t=0" and "realm:q=6;t=00" all
// name REALM16 with t = 0.  canonical_spec() is the one definition of which
// design a spec names.  Its canonical form is the lower-cased design name,
// then ":key=value" for every parameter of the design with the defaults
// filled in, keys in lexicographic order, values in plain decimal, e.g.
// "realm:m=16,q=6,t=0", "calm:t=0", "drum:k=6"; a design without parameters
// is just its name ("accurate", "implm").  Two specs name the same design
// exactly when their canonical forms are equal, so every cache or store that
// asks "is this the same design?" keys on canonical_spec(): the server's
// model cache, the campaign store keys, the sweep's dedupe and the cost
// model's cache.
//
// Each design family is one row of a table in registry.cpp: its keys, their
// defaults and width-independent ranges, and the factory of its behavioral
// model.  Rules that depend on the operand width live only in the model's
// constructor; hw::build_circuit constructs the model through the same row
// before building the netlist, so model and netlist accept the same
// (spec, n).  A new family is one row here, one model class, and one row
// in hw's builder table (src/hw/circuits/dispatch.cpp).
//
// table1_specs() lists the rows of Table I in paper order so the error and
// synthesis benches, the Pareto sweep, and the tests all iterate the same
// design set.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "realm/multiplier.hpp"

namespace realm::core {
struct RealmConfig;
}  // namespace realm::core

namespace realm::mult {

/// A parsed spec: lower-cased design name plus every parameter of that
/// design, with the defaults filled in for the keys the spec omits.
struct SpecParams {
  std::string design;
  std::map<std::string, int> params;
};

/// Parses "design:key=value,key=value" against the one table of designs, keys
/// and defaults shared by the behavioral factory and the circuit builders.
/// Throws std::invalid_argument for an unknown design, an unknown, repeated or
/// missing key, or a value that is not one whole decimal int in range.
[[nodiscard]] SpecParams parse_spec(const std::string& spec);

/// The canonical spelling of the design `spec` names (see the top of this
/// file): parse_spec's design and parameters printed as
/// "design:key=value,..." in key order.  Idempotent, and
/// parse_spec(canonical_spec(s)) equals parse_spec(s).  Throws what
/// parse_spec throws.
[[nodiscard]] std::string canonical_spec(const std::string& spec);

/// The REALM configuration of a parsed "realm" spec for n-bit operands,
/// shared by make_multiplier and hw::build_circuit.
[[nodiscard]] core::RealmConfig realm_config(const SpecParams& spec, int n);

/// Parses a spec string and constructs the design for n-bit operands.
/// Throws std::invalid_argument on unknown designs, malformed specs, or
/// parameters the design rejects at width n; hw::build_circuit throws for
/// exactly the same (spec, n).
[[nodiscard]] std::unique_ptr<Multiplier> make_multiplier(const std::string& spec,
                                                          int n = 16);

/// All approximate-design rows of Table I, in the paper's order.
[[nodiscard]] std::vector<std::string> table1_specs();

/// The subset used in the JPEG evaluation (Table II), paper order, minus the
/// accurate reference.
[[nodiscard]] std::vector<std::string> table2_specs();

/// The designs plotted in Fig. 1 (least-mean-error configurations).
[[nodiscard]] std::vector<std::string> fig1_specs();

}  // namespace realm::mult
