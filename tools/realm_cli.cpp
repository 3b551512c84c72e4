// realm_cli — one command-line front end for the whole library.
//
// The verb catalog (names, argument synopses, help lines) lives in
// realm_cli_commands.hpp, which also renders the usage text — dispatch and
// help share one table, so they cannot drift.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "realm/campaign/record.hpp"
#include "realm/core/error_analysis.hpp"
#include "realm/error/render.hpp"
#include "realm/net/client.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/realm.hpp"
#include "parse_u64.hpp"
#include "realm_cli_commands.hpp"

using namespace realm;

namespace {

int usage() {
  std::fputs(cli::usage_text().c_str(), stderr);
  return 2;
}

/// argv[i] as a strict decimal int in [lo, hi] (exit 2 otherwise), or
/// `fallback` when the optional argument is absent.
int int_arg(int argc, char** argv, int i, const char* name, int fallback,
            std::uint64_t lo, std::uint64_t hi) {
  if (argc <= i) return fallback;
  return static_cast<int>(cli::parse_u64_flag(name, argv[i], lo, hi));
}

int cmd_characterize(int argc, char** argv) {
  const std::string spec = argc > 2 ? argv[2] : "realm:m=16,t=0";
  const auto model = mult::make_multiplier(spec, 16);
  err::MonteCarloOptions opts;
  opts.samples = argc > 3 ? cli::parse_u64_flag("samples", argv[3], 1, 1ull << 40)
                          : (1ull << 22);
  const auto r = err::monte_carlo(*model, opts);
  std::printf("%s\n%s\n", model->name().c_str(), r.summary().c_str());
  return 0;
}

int cmd_predict(int argc, char** argv) {
  const int m = int_arg(argc, argv, 2, "M", 16, 2, core::kMaxLutM);
  const int q = int_arg(argc, argv, 3, "q", 6, 3, core::kMaxLutQ);
  const core::SegmentLut lut{m, q};
  const auto p = core::predict_realm_errors(lut);
  std::printf("REALM%d (q=%d), analytic prediction at t=0:\n", m, q);
  std::printf("  bias %+0.3f%%  mean %.3f%%  min %+0.3f%%  max %+0.3f%%  var %.3f\n",
              p.bias_pct, p.mean_pct, p.min_pct, p.max_pct, p.variance);
  return 0;
}

int cmd_synth(int argc, char** argv) {
  const std::string spec = argc > 2 ? argv[2] : "realm:m=16,t=0";
  const int n = int_arg(argc, argv, 3, "n", 16, 2, 31);
  const hw::Module mod = hw::build_circuit(spec, n);
  const auto timing = hw::analyze_timing(mod);
  hw::StimulusProfile prof;
  prof.cycles = 800;
  hw::CostModel cm{n, prof};
  std::printf("design:       %s (N=%d)\n", spec.c_str(), n);
  std::printf("gates:        %zu\n", mod.gates().size());
  std::printf("area:         %.1f um^2 (%.1f%% reduction vs accurate)\n",
              cm.cost(spec).area_um2, cm.area_reduction_pct(spec));
  std::printf("power:        %.1f uW (%.1f%% reduction vs accurate)\n",
              cm.cost(spec).power_uw, cm.power_reduction_pct(spec));
  std::printf("critical path: %.0f ps (%d logic levels)\n", timing.critical_path_ps,
              timing.logic_depth);
  return 0;
}

int cmd_verilog(int argc, char** argv) {
  if (argc < 4) return usage();
  const hw::Module mod = hw::build_circuit(argv[2], 16);
  std::ofstream os{argv[3]};
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", argv[3]);
    return 1;
  }
  os << hw::verilog_cell_models() << hw::to_verilog(mod)
     << hw::to_verilog_testbench(mod, 64);
  std::printf("wrote %s (cells + netlist + self-checking testbench)\n", argv[3]);
  return 0;
}

int cmd_sij(int argc, char** argv) {
  const int m = int_arg(argc, argv, 2, "M", 8, 2, core::kMaxLutM);
  const int q = int_arg(argc, argv, 3, "q", 6, 3, core::kMaxLutQ);
  const core::SegmentLut lut{m, q};
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) std::printf(" %8.6f", lut.exact(i, j));
    std::printf("\n");
  }
  std::printf("(quantized to q=%d: %d stored bits/entry, max error %.6f)\n", q,
              lut.stored_bits(), lut.max_quantization_error());
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto model = mult::make_multiplier(argv[2], 16);
  const auto pts = err::error_profile(*model, 32, 255);
  err::write_profile_ppm(pts, 12.0, argv[3]);
  std::printf("wrote %s (224x224, +-12%% diverging colormap)\n", argv[3]);
  return 0;
}

int cmd_jpeg(int argc, char** argv) {
  const std::string spec = argc > 2 ? argv[2] : "realm:m=16,t=8";
  const jpeg::Image img =
      argc > 3 ? jpeg::read_pgm(argv[3]) : jpeg::synthetic_cameraman(512);
  const auto model = mult::make_multiplier(spec, 16);
  jpeg::CodecOptions opts;
  opts.mul = model.get();
  const auto c = jpeg::encode(img, opts);
  const auto rec = jpeg::decode(c, opts);
  std::printf("%s: PSNR %.2f dB, %zu bytes\n", model->name().c_str(),
              jpeg::psnr(img, rec), c.size_bytes());
  return 0;
}

int cmd_list() {
  for (const auto& spec : mult::table1_specs()) std::printf("%s\n", spec.c_str());
  return 0;
}

int cmd_recommend(int argc, char** argv) {
  dse::ErrorBudget budget;
  if (argc > 2) budget.max_mean_pct = std::atof(argv[2]);
  if (argc > 3) budget.max_peak_pct = std::atof(argv[3]);
  std::printf("sweeping the Table I design space (budget: mean<=%.2f%%, peak<=%.2f%%)...\n",
              budget.max_mean_pct, budget.max_peak_pct);
  dse::SweepOptions opts;
  opts.monte_carlo.samples = 1 << 19;
  opts.stimulus.cycles = 400;
  const auto points = dse::run_sweep(mult::table1_specs(), opts);
  for (const auto axis : {dse::CostAxis::kAreaReduction, dse::CostAxis::kPowerReduction}) {
    const auto best = dse::best_under_budget(points, budget, axis);
    const char* label = axis == dse::CostAxis::kAreaReduction ? "area" : "power";
    if (!best) {
      std::printf("best by %s: no design meets the budget\n", label);
      continue;
    }
    const auto& p = points[*best];
    std::printf("best by %s: %-20s (%s-red %.1f%%, mean %.2f%%, peak %.2f%%)\n", label,
                p.name.c_str(), label,
                axis == dse::CostAxis::kAreaReduction ? p.area_reduction_pct
                                                      : p.power_reduction_pct,
                p.error.mean, p.error.peak());
  }
  return 0;
}

// Prometheus text exposition of one stats field: name sanitized to the
// metric charset, value re-rendered as a plain decimal (counters stay
// verbatim; hex-floats round-trip through strtod).
void print_prom_field(const std::string& name, const std::string& value) {
  std::string metric = "realm_";
  for (const char ch : name) {
    metric += (std::isalnum(static_cast<unsigned char>(ch)) != 0) ? ch : '_';
  }
  char* end = nullptr;
  const double d = std::strtod(value.c_str(), &end);
  const bool numeric = end != nullptr && *end == '\0' && !value.empty();
  const bool integral = numeric && value.find_first_of(".xXpP") == std::string::npos;
  if (integral) {
    std::printf("%s %s\n", metric.c_str(), value.c_str());
  } else if (numeric) {
    std::printf("%s %.17g\n", metric.c_str(), d);
  }
  // Non-numeric values (none today) are silently skipped: Prometheus text
  // format has no string samples.
}

int cmd_stats(int argc, char** argv) {
  std::string unix_path;
  int port = 0;
  bool prom = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<int>(cli::parse_u64_flag("--port", argv[++i], 1, 65535));
    } else if (arg == "--stats-format=prom") {
      prom = true;
    } else if (arg == "--stats-format=raw") {
      prom = false;
    } else {
      std::fprintf(stderr, "stats: unknown argument '%s'\n", arg.c_str());
      return usage();
    }
  }
  if (unix_path.empty() && port == 0) {
    std::fprintf(stderr, "stats: need --unix PATH or --port N\n");
    return usage();
  }
  net::Client client;
  if (!unix_path.empty()) {
    client.connect_unix(unix_path);
  } else {
    client.connect_tcp(port);
  }
  const net::Frame reply = client.call(net::MsgType::kStats, 1, {});
  if (reply.type != net::MsgType::kReplyOk) {
    const net::ErrorReply err = net::parse_error(reply.body);
    std::fprintf(stderr, "stats: server error %s: %s\n",
                 net::error_code_name(err.code), err.message.c_str());
    return 1;
  }
  if (!prom) {
    std::fputs(reply.body.c_str(), stdout);
    return 0;
  }
  const campaign::PayloadReader r{reply.body};
  for (const auto& [name, value] : r.fields()) print_prom_field(name, value);
  return 0;
}

// The metric catalog every realm-bench-v3 document carries, printed from the
// obs enums themselves so no tool keeps its own copy of the names.
template <typename Enum>
void print_catalog_list(const char* key, unsigned count, const char* (*name)(Enum)) {
  std::printf("  \"%s\": [", key);
  for (unsigned i = 0; i < count; ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", name(static_cast<Enum>(i)));
  }
  std::printf("],\n");
}

int cmd_catalog() {
  std::printf("{\n");
  print_catalog_list("counters", obs::kCounterCount, obs::counter_name);
  print_catalog_list("gauges", obs::kGaugeCount, obs::gauge_name);
  print_catalog_list("value_histograms", obs::kValueHistCount, obs::value_hist_name);
  std::printf("  \"histogram_buckets\": %u\n}\n", obs::kHistogramBuckets);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // Reject unknown verbs against the shared catalog before dispatching, so
  // a verb cannot exist in the dispatch chain without a usage row.
  bool known = false;
  for (const cli::CommandSpec& c : cli::kCommands) {
    if (cmd == c.name) {
      known = true;
      break;
    }
  }
  if (!known) return usage();
  try {
    if (cmd == "characterize") return cmd_characterize(argc, argv);
    if (cmd == "predict") return cmd_predict(argc, argv);
    if (cmd == "synth") return cmd_synth(argc, argv);
    if (cmd == "verilog") return cmd_verilog(argc, argv);
    if (cmd == "sij") return cmd_sij(argc, argv);
    if (cmd == "profile") return cmd_profile(argc, argv);
    if (cmd == "jpeg") return cmd_jpeg(argc, argv);
    if (cmd == "list") return cmd_list();
    if (cmd == "recommend") return cmd_recommend(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "catalog") return cmd_catalog();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // A verb in the catalog with no dispatch branch is a table/dispatch drift
  // bug; fail loudly rather than pretending the verb does not exist.
  std::fprintf(stderr, "internal error: verb '%s' has no handler\n", cmd.c_str());
  return 1;
}
