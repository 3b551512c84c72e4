// The realm_cli command catalog, shared by the dispatcher and usage().
//
// PR 8 shipped a usage line that was missing the `recommend` verb because
// the dispatcher and the help text were maintained by hand in two places.
// This table is now the single source of truth: main() dispatches by
// looking a verb up here, usage_text() renders the same rows, and
// test_cli_usage.cpp asserts the two can never drift again (every table
// verb appears in the usage text exactly once, no duplicates in the table).

#pragma once

#include <cstddef>
#include <string>

namespace realm::cli {

struct CommandSpec {
  const char* name;       ///< the verb as typed on the command line
  const char* args_help;  ///< argument synopsis shown in the long usage
  const char* help;       ///< one-line description
};

/// Every realm_cli verb.  Order is display order; names must be unique.
inline constexpr CommandSpec kCommands[] = {
    {"characterize", "<spec> [samples]", "error metrics (Monte-Carlo)"},
    {"predict", "<M> [q]", "analytic error prediction"},
    {"synth", "<spec> [n]", "gates/area/power/delay report"},
    {"verilog", "<spec> <out.v>", "structural Verilog + TB"},
    {"sij", "<M> [q]", "error-reduction factor table"},
    {"profile", "<spec> <out.ppm>", "Fig.1-style error heat map"},
    {"jpeg", "<spec> [in.pgm]", "JPEG PSNR evaluation"},
    {"list", "", "all Table I design specs"},
    {"recommend", "[max_mean%] [max_peak%]", "cheapest design in budget"},
    {"stats", "(--unix PATH | --port N) [--stats-format=raw|prom]",
     "poll a running realm_served for live stats"},
    {"catalog", "", "metric catalog as JSON (check_bench_schema.py --catalog)"},
};

inline constexpr std::size_t kCommandCount =
    sizeof(kCommands) / sizeof(kCommands[0]);

/// The verb list rendered from the table ("characterize|predict|...").
inline std::string command_alternatives() {
  std::string out;
  for (std::size_t i = 0; i < kCommandCount; ++i) {
    if (i != 0) out += '|';
    out += kCommands[i].name;
  }
  return out;
}

/// The full usage text: a one-line synopsis plus one row per verb.
inline std::string usage_text() {
  std::string out = "usage: realm_cli <" + command_alternatives() + "> [args]\n";
  for (const CommandSpec& c : kCommands) {
    std::string line = std::string{"  realm_cli "} + c.name;
    if (c.args_help[0] != '\0') line += std::string{" "} + c.args_help;
    if (line.size() < 58) {
      line.append(58 - line.size(), ' ');
    } else {
      line += "  ";  // synopsis longer than the column: keep one gap
    }
    out += line + c.help + "\n";
  }
  return out;
}

}  // namespace realm::cli
