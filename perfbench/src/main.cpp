// realm_perfbench: runs one benchmark workload and prints one JSON line.
//
//   realm_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                   [--setup-only] [--out-dir DIR]
//
// NAME is table1_sweep, exact_band, jpeg_table2 or serve_mixed.  The last
// line of stdout is {"workload", "setup_s", "attempted", "failed",
// "problems", "end_to_end", "layers", "info"}; run.py turns it into the
// benchmark's result line.  --setup-only stops after set-up (run.py times
// set-up in fresh processes, because the library caches derived tables for
// the life of a process).  With --trace 1 the spans go to
// DIR/trace-NAME-N.json at exit.  Exit 0 when the run completed (its checks
// may still have failed), 2 on bad arguments, 1 on an error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "realm_perfbench: %s\n"
               "usage: realm_perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--setup-only] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

double parse_number(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    usage((std::string{"bad value for "} + flag).c_str());
  }
  return v;
}

void print_map(const char* key, const std::map<std::string, double>& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      opt.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || text[0] == '-') usage("bad value for --seed");
    } else if (arg == "--seconds") {
      opt.seconds = parse_number("--seconds", value(), 0.1, 600);
    } else if (arg == "--trace") {
      opt.trace = parse_number("--trace", value(), 0, 1) != 0.0;
    } else if (arg == "--setup-only") {
      opt.setup_only = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    pb::Tracer tracer{opt.trace};
    pb::Report r;
    if (workload == "table1_sweep") {
      r = pb::run_compute(*pb::make_table1_sweep(opt.seed), opt, tracer);
    } else if (workload == "exact_band") {
      r = pb::run_compute(*pb::make_exact_band(opt.seed), opt, tracer);
    } else if (workload == "jpeg_table2") {
      r = pb::run_compute(*pb::make_jpeg_table2(opt.seed), opt, tracer);
    } else if (workload == "serve_mixed") {
      r = pb::run_serve_mixed(opt, tracer);
    } else {
      usage(("unknown workload '" + workload + "'").c_str());
    }
    if (opt.trace && !opt.setup_only) {
      tracer.write(opt.out_dir + "/trace-" + workload + "-" + std::to_string(opt.seed) +
                   ".json");
    }
    constexpr std::size_t kShown = 20;
    for (std::size_t i = 0; i < r.problems.size() && i < kShown; ++i) {
      std::fprintf(stderr, "check failed: %s\n", r.problems[i].c_str());
    }
    if (r.problems.size() > kShown) {
      std::fprintf(stderr, "... and %zu more failed checks\n", r.problems.size() - kShown);
    }
    std::printf("{\"workload\":\"%s\",\"setup_s\":%.17g,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"problems\":%zu",
                workload.c_str(), r.setup_s, r.attempted, r.failed, r.problems.size());
    print_map("end_to_end", r.end_to_end);
    print_map("layers", r.layers);
    print_map("info", r.info);
    std::printf("}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "realm_perfbench: %s\n", e.what());
    return 1;
  }
}
