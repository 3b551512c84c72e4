#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark program, runs one
workload (or all four) and prints every metric with its unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Metric names and units come from BENCHMARK.json at the repository root;
perfbench/README.md says what each workload runs and what each metric
measures.  The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (a per-layer metric a workload does not exercise reads 0).

Build: a library-only build of the repository with its own CMakeLists.txt
(tests, benches and examples off), then this directory's CMakeLists.txt
against it, both Release, under $CARGO_TARGET_DIR (default .bench_build).
setup_s is the median set-up time of SETUP_RUNS fresh processes: the
library caches derived LUTs for the life of a process, so only a fresh
process pays the whole set-up a user pays.

Exit status: 0 with a result line; 1 (and no result line) when the build,
a run or the result is broken.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["table1_sweep", "exact_band", "jpeg_table2", "serve_mixed"]
SETUP_RUNS = 5  # set-ups timed per run (SETUP_RUNS - 1 set-up-only processes + the run)
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170
# Units of the unbounded facts each run prints beside its metrics.
INFO_UNITS = {"p50_ms": "ms", "p99_ms": "ms", "wall_ops_per_s": "1/s", "rate_per_s": "1/s",
              "cores_used": "cores", "passes": "count", "requests": "count", "band_lo": "operand"}
# Library test hooks that would change what is measured.
SCRUBBED_ENV = ("REALM_TRACE", "REALM_SAMPLE_HZ", "REALM_CAMPAIGN_CRASH_AFTER",
                "REALM_OBS_TEST_SLOWDOWN")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_checked(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise RuntimeError("build step failed: " + " ".join(str(c) for c in cmd))


def build():
    """Builds the library and the benchmark program; returns its path."""
    out = build_dir()
    lib, drv = out / "realm", out / "perfbench"
    if not (lib / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(ROOT), "-B", str(lib), "-DCMAKE_BUILD_TYPE=Release",
                     "-DREALM_BUILD_TESTS=OFF", "-DREALM_BUILD_BENCH=OFF",
                     "-DREALM_BUILD_EXAMPLES=OFF"])
    run_checked(["cmake", "--build", str(lib), "-j", BUILD_JOBS])
    if not (drv / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(drv), "-DCMAKE_BUILD_TYPE=Release",
                     "-DREALM_SOURCE_DIR=" + str(ROOT), "-DREALM_LIBRARY_DIR=" + str(lib / "src")])
    run_checked(["cmake", "--build", str(drv), "-j", BUILD_JOBS])
    return drv / "realm_perfbench"


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("include", "src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance():
    commit = "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": source_digest(), "build_type": "Release",
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg())}


def drive(binary, workload, seed, seconds, trace, setup_only):
    out_dir = build_dir() / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
                         timeout=RUN_TIMEOUT_S)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: realm_perfbench exited with {res.returncode}")
    return json.loads(lines[-1])


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics) for one workload."""
    setups = [drive(binary, workload, seed, seconds, 0, True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    res = drive(binary, workload, seed, seconds, trace, False)
    setups.append(res["setup_s"])
    measured = dict(res["end_to_end"], setup_s=statistics.median(setups))

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in declared}
    if trace:
        unknown = set(res["layers"]) - names
        if unknown:
            raise RuntimeError(f"{workload}: undeclared per-layer metrics {sorted(unknown)}")
        values = {n: res["layers"].get(n, 0.0) for n in names}
    else:
        missing = names - set(measured)
        if missing:
            raise RuntimeError(f"{workload}: end-to-end metrics not measured {sorted(missing)}")
        values = measured
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for key, value in sorted(res["info"].items()):
        print(f"{workload}  [info, no bound] {key} = {value:g} {INFO_UNITS.get(key, '')}")
    measured_here = res["layers"] if trace else measured
    for name, m in metrics.items():
        if name in measured_here:
            print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    if len(measured_here) < len(metrics):
        print(f"{workload}  ({len(metrics) - len(measured_here)} per-layer metrics "
              "not exercised by this workload read 0)")
    correct = res["problems"] == 0 and res["failed"] == 0 and res["attempted"] > 0
    return correct, res["attempted"], res["failed"], metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    try:
        t0 = time.monotonic()
        binary = build()
        log(f"build ready in {time.monotonic() - t0:.1f}s")
        print("provenance: " + json.dumps(provenance(), sort_keys=True))
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        correct, attempted, failed, metrics = True, 0, 0, {}
        for w in workloads:
            ok, att, fail, m = run_workload(binary, spec, w, args.seed, args.seconds, args.trace)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            if args.workload == "all":
                m = {f"{w}.{k}": v for k, v in m.items()}
            metrics.update(m)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
