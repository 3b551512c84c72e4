#!/usr/bin/env python3
"""Validate bench documents against the realm-bench-v3 schema, and assert
floors on their values.

Usage: check_bench_schema.py --catalog=PATH FILE [FILE ...]
       check_bench_schema.py --min FILE KEY MIN
       check_bench_schema.py --ratio FILE_A FILE_B KEY MIN
       check_bench_schema.py --equal FILE_A FILE_B KEY
       check_bench_schema.py --diff BASELINE [BASELINE ...] CURRENT
                             [--tolerance=F] [--tol=KEY=F ...] [--verbose]

Schema mode accepts two file kinds:
  * BENCH_*.json and other MetricsSink documents: schema "realm-bench-v3"
    with `meta` (naming the producing bench), a `run` stamp
    (host/commit/hw_threads), `metrics`, `counters`, `gauges`, `spans`
    (per-span count/total/mean/min/max/p50/p95/p99 in µs plus a bucket
    array), `value_histograms` and a `timeline` list of sampler snapshots.
    The counter, gauge and value-histogram names must be exactly those of
    the metric catalog: none missing, none the catalog lacks.  Any
    `slo_*_w<N>_count` metric that is nonzero must come with
    its `slo_*_w<N>_p99_us` metric (realm_top snapshots carry these).
  * trace_*.json: Chrome trace-event exports; must hold a non-empty
    `traceEvents` list whose complete ("X") events carry name/ts/dur/pid/tid.

The catalog is the output of `realm_cli catalog` from the same build, so the
names exist only in C++ (include/realm/obs/counters.hpp, histogram.hpp):

    build/tools/realm_cli catalog > catalog.json
    check_bench_schema.py --catalog=catalog.json bench_out/*.json

The assertion forms read one value by a dotted KEY (`metrics.requests_per_s`,
`counters.net_requests`, `timeline`).  Each component names a key of the
object before it; a component may itself contain dots, as metric names do.
  --min    asserts value >= MIN.  A list value counts its length; a `*` in
           the last component sums every matching value
           (`metrics.slo_*_w10_count`).
  --ratio  asserts value_B / value_A >= MIN (e.g. the warm-vs-cold request
           rate of two serving runs).
  --equal  asserts the two values are equal; an object value compares key set
           and values, so `--equal A B metrics` proves a resumed campaign
           reproduces the uninterrupted run bit for bit.

--diff is the run-over-run regression gate.  It flattens each document to
`metrics.<k>` (numbers; a JSON null, which is how NaN is written, reads as
NaN), `counters.<k>`, `spans.<name>.{count,total_us,p50_us,p95_us,p99_us}`
and `value_histograms.<name>.{count,total,p95}`, and compares CURRENT with
BASELINE, or with the per-key lower median of several baselines (NaN
skipped).  Every document must carry the same meta.bench.  Each key gets a
direction from its name:
  higher-is-better  metrics.* containing speedup, _sps, _per_s, per_sec,
                    mpix, psnr or _acc
  lower-is-better   spans.* except .count; metrics.* ending in _ns, _us,
                    _ms, _s or _seconds, or containing latency, wait, time
  informational     everything else (counters, value histograms, error
                    metrics, and uptime, which is a clock reading that
                    every later snapshot moves): listed, never gated
A directional key regresses when it moves the wrong way by more than its
tolerance (--tolerance=F, default 0.10; --tol=KEY=F per key).  Percentile
keys (.p50/.p95/.p99, with or without _us) are log2-bucket estimates, so a
slowdown there must exceed one bucket as well: current > 2*(1+F)*baseline.
A NaN or missing value on a directional key is a regression; a new key is
not.  A lower-is-better key with a zero baseline regresses on any nonzero
value; a higher-is-better key with a zero baseline never does.

Exit status: 0 if every check passes (--diff: no regression), 1 if any
fails (each problem listed), 2 on a usage or I/O error.  Stdlib only.
"""

import collections
import fnmatch
import json
import math
import re
import sys

# Per-span and per-value-histogram summary columns (µs-scaled for spans,
# raw units for value histograms).
SPAN_FIELDS = ("count", "total_us", "mean_us", "min_us", "max_us",
               "p50_us", "p95_us", "p99_us")
VHIST_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p95", "p99")

TIMELINE_FIELDS = ("t_us", "rss_kb", "pool_workers", "pool_active",
                   "pool_queue_depth", "counters")

CATALOG_LISTS = ("counters", "gauges", "value_histograms")

SLO_WINDOW_COUNT = re.compile(r"^slo_.+_w\d+_count$")


class UsageError(Exception):
    pass


class CheckFailed(Exception):
    pass


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_catalog(path):
    try:
        with open(path, encoding="utf-8") as f:
            catalog = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read catalog {path}: {exc}") from exc
    ok = isinstance(catalog, dict) and isinstance(
        catalog.get("histogram_buckets"), int) and all(
            isinstance(catalog.get(key), list)
            and all(isinstance(n, str) for n in catalog[key])
            for key in CATALOG_LISTS)
    if not ok:
        raise UsageError(f"{path} is not a realm_cli catalog document")
    return catalog


def check_histogram(name, entry, fields, buckets_expected, problems):
    if not isinstance(entry, dict):
        problems.append(f"{name} is not an object")
        return
    for key in fields:
        if not is_number(entry.get(key)):
            problems.append(f"{name} missing numeric {key!r}")
    buckets = entry.get("buckets")
    if (not isinstance(buckets, list) or len(buckets) != buckets_expected
            or not all(isinstance(b, int) and b >= 0 for b in buckets)):
        problems.append(
            f"{name}.buckets is not a {buckets_expected}-entry list of"
            " non-negative integers")
    elif isinstance(entry.get("count"), int) and sum(buckets) != entry["count"]:
        problems.append(f"{name}: bucket sum {sum(buckets)} != count {entry['count']}")


def check_catalog_section(doc, section, catalog, problems):
    """The `section` object must exist and hold exactly the catalog names."""
    entries = doc.get(section)
    if not isinstance(entries, dict):
        problems.append(f"missing {section!r} object")
        return {}
    for name in catalog[section]:
        if name not in entries:
            problems.append(f"{section} missing {name!r}")
    for name in entries:
        if name not in catalog[section]:
            problems.append(f"{section} has {name!r}, which the catalog lacks")
    return entries


def check_slo_windows(metrics, problems):
    for key, value in sorted(metrics.items()):
        if not SLO_WINDOW_COUNT.match(key):
            continue
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key} is not a non-negative integer: {value!r}")
            continue
        p99_key = key[: -len("count")] + "p99_us"
        if value > 0 and not is_number(metrics.get(p99_key)):
            problems.append(f"{key} = {value} but {p99_key} is missing")


def check_bench(doc, catalog, problems):
    if doc.get("schema") != "realm-bench-v3":
        problems.append(f"schema is {doc.get('schema')!r}, expected 'realm-bench-v3'")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        problems.append("missing 'meta' object")
    elif not meta.get("bench"):
        problems.append("meta.bench is missing or empty")
    elif not meta.get("generated_utc"):
        problems.append("meta.generated_utc is missing or empty")
    run = doc.get("run")
    if not isinstance(run, dict):
        problems.append("missing 'run' object")
    else:
        for key in ("host", "commit"):
            if not run.get(key):
                problems.append(f"run.{key} is missing or empty")
        if not isinstance(run.get("hw_threads"), int):
            problems.append("run.hw_threads is not an integer")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("missing or empty 'metrics' object")
    else:
        check_slo_windows(metrics, problems)
    counters = check_catalog_section(doc, "counters", catalog, problems)
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            problems.append(f"counter {name!r} is not a non-negative integer")
    check_catalog_section(doc, "gauges", catalog, problems)
    buckets = catalog["histogram_buckets"]
    spans = doc.get("spans")
    if not isinstance(spans, dict):
        problems.append("missing 'spans' object")
    else:
        for name, entry in spans.items():
            check_histogram(f"spans[{name!r}]", entry, SPAN_FIELDS, buckets,
                            problems)
    vhists = check_catalog_section(doc, "value_histograms", catalog, problems)
    for name, entry in vhists.items():
        check_histogram(f"value_histograms[{name!r}]", entry, VHIST_FIELDS,
                        buckets, problems)
    timeline = doc.get("timeline")
    if not isinstance(timeline, list):
        problems.append("missing 'timeline' list")
    else:
        for i, sample in enumerate(timeline):
            if not isinstance(sample, dict):
                problems.append(f"timeline[{i}] is not an object")
                continue
            for key in TIMELINE_FIELDS:
                if key not in sample:
                    problems.append(f"timeline[{i}] missing {key!r}")
            if not isinstance(sample.get("counters"), dict):
                problems.append(f"timeline[{i}].counters is not an object")


def check_trace(doc, problems):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("missing or empty 'traceEvents' list")
        return
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        problems.append("no complete ('X' phase) events in trace")
    for e in complete:
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in e:
                problems.append(f"'X' event missing {key!r}: {e}")
                break


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckFailed(f"{path}: top level is not a JSON object")
    return doc


def check_file(path, catalog):
    try:
        doc = load(path)
    except CheckFailed as exc:
        return [str(exc)]
    problems = []
    if "traceEvents" in doc:
        check_trace(doc, problems)
    else:
        check_bench(doc, catalog, problems)
    return problems


def resolve(node, path, key):
    """The value at dotted `path` below `node`; the longest key wins when a
    component itself contains dots."""
    while path:
        if not isinstance(node, dict):
            raise CheckFailed(f"{key!r}: not an object above {path!r}")
        parts = path.split(".")
        for i in range(len(parts), 0, -1):
            head = ".".join(parts[:i])
            if head in node:
                node, path = node[head], ".".join(parts[i:])
                break
        else:
            raise CheckFailed(f"{key!r}: no key {parts[0]!r}")
    return node


def value_at(path, key):
    """The value of `key` in the document at `path`; a `*` in the last
    component sums the numeric values of every matching key."""
    doc = load(path)
    if "*" not in key:
        return resolve(doc, key, key)
    parent, _, pattern = key[: key.index("*")].rpartition(".")
    pattern += key[key.index("*"):]
    node = resolve(doc, parent, key)
    if not isinstance(node, dict):
        raise CheckFailed(f"{path}: {parent!r} is not an object")
    matches = {k: v for k, v in node.items() if fnmatch.fnmatchcase(k, pattern)}
    if not matches:
        raise CheckFailed(f"{path}: no key matches {key!r}")
    for k, v in matches.items():
        if not is_number(v):
            raise CheckFailed(f"{path}: {k!r} is not a number: {v!r}")
    return sum(matches.values())


def number_at(path, key):
    value = value_at(path, key)
    if isinstance(value, list):
        return len(value)
    if not is_number(value):
        raise CheckFailed(f"{path}: {key!r} is not a number or list: {value!r}")
    return value


def parse_min(text):
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"MIN must be a number, got {text!r}") from exc


def assert_min(path, key, minimum):
    value = number_at(path, key)
    if value < minimum:
        raise CheckFailed(f"{path}: {key} = {value} < required {minimum:g}")
    return f"{path}: {key} = {value} >= {minimum:g}"


def assert_ratio(path_a, path_b, key, minimum):
    a, b = number_at(path_a, key), number_at(path_b, key)
    if a <= 0:
        raise CheckFailed(f"{path_a}: {key} = {a:g} is not positive")
    if b / a < minimum:
        raise CheckFailed(
            f"{key}: {path_b} / {path_a} = {b / a:.2f} < required {minimum:g}")
    return f"{key}: {path_b} / {path_a} = {b / a:.2f} >= {minimum:g}"


def assert_equal(path_a, path_b, key):
    a, b = value_at(path_a, key), value_at(path_b, key)
    if not (isinstance(a, dict) and isinstance(b, dict)):
        if a != b:
            raise CheckFailed(f"{key} differs: {a!r} != {b!r}")
        return f"{key} identical in {path_a} and {path_b}: {a!r}"
    diffs = []
    for k in sorted(set(a) | set(b)):
        if k not in a:
            diffs.append(f"only in {path_b}: {k!r}")
        elif k not in b:
            diffs.append(f"only in {path_a}: {k!r}")
        elif a[k] != b[k]:
            diffs.append(f"{k!r}: {a[k]!r} != {b[k]!r}")
    if diffs:
        raise CheckFailed(f"{key} of {path_a} and {path_b} differ"
                          + "".join(f"\n  - {d}" for d in diffs))
    return f"{key} of {path_a} and {path_b} are identical ({len(a)} entries)"


ASSERTIONS = {
    "--min": (3, "FILE KEY MIN",
              lambda f, k, m: assert_min(f, k, parse_min(m))),
    "--ratio": (4, "FILE_A FILE_B KEY MIN",
                lambda a, b, k, m: assert_ratio(a, b, k, parse_min(m))),
    "--equal": (3, "FILE_A FILE_B KEY", assert_equal),
}


def check_schema(args):
    if not args or not args[0].startswith("--catalog="):
        raise UsageError("schema mode needs --catalog=PATH before the files")
    catalog = load_catalog(args[0][len("--catalog="):])
    if len(args) < 2:
        raise UsageError("no files to check")
    failed = False
    for path in args[1:]:
        problems = check_file(path, catalog)
        if problems:
            failed = True
            print(f"FAIL {path}")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


# -- run-over-run diff -------------------------------------------------------

DIFF_FIELDS = {"spans": ("count", "total_us", "p50_us", "p95_us", "p99_us"),
               "value_histograms": ("count", "total", "p95")}
HIGHER_BETTER_WORDS = ("speedup", "_sps", "_per_s", "per_sec", "mpix", "psnr",
                       "_acc")
LOWER_BETTER_SUFFIXES = ("_ns", "_us", "_ms", "_s", "_seconds")
LOWER_BETTER_WORDS = ("latency", "wait", "time")
PERCENTILE_SUFFIXES = (".p50_us", ".p95_us", ".p99_us", ".p50", ".p95", ".p99")
DIRECTION_TAGS = {"higher": "higher-better", "lower": "lower-better", "info": "info"}

Delta = collections.namedtuple(
    "Delta", "key direction baseline current rel_change regression note")


def classify(key):
    """'higher', 'lower' or 'info' for a flattened key (see the docstring)."""
    if key.startswith("spans."):
        return "info" if key.endswith(".count") else "lower"
    if key.startswith("metrics.") and "uptime" not in key:
        if any(w in key for w in HIGHER_BETTER_WORDS):
            return "higher"
        if key.endswith(LOWER_BETTER_SUFFIXES) or any(
                w in key for w in LOWER_BETTER_WORDS):
            return "lower"
    return "info"


def flatten(doc):
    """{dotted key: float} over the columns --diff compares; null is NaN."""
    values = {}

    def put(key, value):
        if value is None:
            values[key] = math.nan
        elif is_number(value):
            values[key] = float(value)

    for section in ("metrics", "counters", *DIFF_FIELDS):
        entries = doc.get(section)
        for name, entry in (entries if isinstance(entries, dict) else {}).items():
            if section not in DIFF_FIELDS:
                put(f"{section}.{name}", entry)
            elif isinstance(entry, dict):
                for field in DIFF_FIELDS[section]:
                    if field in entry:
                        put(f"{section}.{name}.{field}", entry[field])
    return values


def lower_median(flats):
    """Per-key lower median, NaN skipped, so the result is always an observed
    value; a key that is NaN in every document is left out."""
    out = {}
    for key in set().union(*flats):
        vals = sorted(f[key] for f in flats if key in f and not math.isnan(f[key]))
        if vals:
            out[key] = vals[(len(vals) - 1) // 2]
    return out


def diff(baseline, current, tolerance, per_key):
    """One Delta per key of either side, sorted by key."""
    deltas = []
    for key in sorted(set(baseline) | set(current)):
        direction = classify(key)
        directional = direction != "info"
        base, cur = baseline.get(key), current.get(key)
        if base is None:
            deltas.append(Delta(key, direction, 0.0, cur, 0.0, False,
                                "new key (not in baseline)"))
        elif cur is None:
            deltas.append(Delta(key, direction, base, 0.0, 0.0, directional,
                                "missing from current run"))
        elif math.isnan(base) or math.isnan(cur):
            deltas.append(Delta(key, direction, base, cur, 0.0, directional,
                                "NaN value"))
        else:
            rel = (cur - base) / abs(base) if base != 0 else 0.0
            tol = per_key.get(key, tolerance)
            if direction == "lower":
                # One log2 bucket of slack on percentiles: only a move past
                # 2*(1+tol) cannot be edge flap.  A zero baseline ("was
                # instantaneous") regresses on any measurable time.
                limit = 2 * (1 + tol) - 1 if key.endswith(PERCENTILE_SUFFIXES) else tol
                regression = cur > 0 if base == 0 else rel > limit
            else:
                regression = direction == "higher" and base != 0 and rel < -tol
            deltas.append(Delta(key, direction, base, cur, rel, regression, ""))
    return deltas


def format_delta(d):
    tail = f"[{d.note}]" if d.note else f"{d.rel_change * 100:+.1f}%"
    return (f"  {d.key:<52} {DIRECTION_TAGS[d.direction]:<13} "
            f"baseline={d.baseline:.6g} current={d.current:.6g}  {tail}")


def parse_fraction(flag, text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= 10:
        raise UsageError(f"bad value for {flag}: {text!r} (expected a fraction,"
                         " e.g. 0.25)")
    return value


def load_for_diff(path):
    """(bench, document); an unreadable file or a missing meta.bench is a
    usage error, not a regression."""
    try:
        doc = load(path)
    except CheckFailed as exc:
        raise UsageError(str(exc)) from exc
    meta = doc.get("meta")
    bench = meta.get("bench") if isinstance(meta, dict) else None
    if not bench:
        raise UsageError(f"{path}: meta.bench is missing")
    return bench, doc


def describe(path, doc):
    run = doc.get("run")
    commit = run.get("commit") if isinstance(run, dict) else None
    return f"{path} (commit {commit or '?'})"


def run_diff(args):
    tolerance, per_key, verbose, paths = 0.10, {}, False, []
    for arg in args:
        if arg.startswith("--tolerance="):
            tolerance = parse_fraction("--tolerance", arg[len("--tolerance="):])
        elif arg.startswith("--tol="):
            key, eq, value = arg[len("--tol="):].rpartition("=")
            if not eq or not key:
                raise UsageError(f"bad value for --tol: {arg!r} (expected KEY=F)")
            per_key[key] = parse_fraction("--tol", value)
        elif arg == "--verbose":
            verbose = True
        elif arg.startswith("-"):
            raise UsageError(f"unknown --diff option: {arg}")
        else:
            paths.append(arg)
    if len(paths) < 2:
        raise UsageError("--diff needs at least one BASELINE and a CURRENT file")
    loaded = [load_for_diff(path) for path in paths]
    benches = [bench for bench, _ in loaded]
    if len(set(benches)) != 1:
        raise UsageError("bench mismatch: " + ", ".join(
            f"{path} is {bench!r}" for path, bench in zip(paths, benches)))
    docs = [doc for _, doc in loaded]
    flats = [flatten(doc) for doc in docs]
    # One baseline is compared as it is, NaN included.
    baseline = flats[0] if len(flats) == 2 else lower_median(flats[:-1])
    deltas = diff(baseline, flats[-1], tolerance, per_key)

    source = (describe(paths[0], docs[0]) if len(docs) == 2
              else f"per-key median of {len(docs) - 1} documents")
    print(f"diff: {benches[0]}\n  baseline: {source}\n"
          f"  current:  {describe(paths[-1], docs[-1])}")
    if verbose:
        for d in deltas:
            print(format_delta(d))
    directional = sum(d.direction != "info" for d in deltas)
    regressions = [d for d in deltas if d.regression]
    if regressions:
        print(f"REGRESSION: {len(regressions)} of {directional} directional"
              f" metric(s) outside tolerance (default {tolerance * 100:.0f}%):")
        for d in regressions:
            print(format_delta(d))
        return 1
    print(f"ok   {directional} directional metric(s) within tolerance"
          f" ({len(deltas)} keys compared)")
    return 0


def main(argv):
    args = argv[1:]
    try:
        if args and args[0] == "--diff":
            return run_diff(args[1:])
        if args and args[0] in ASSERTIONS:
            arity, synopsis, run = ASSERTIONS[args[0]]
            if len(args) != arity + 1:
                raise UsageError(f"usage: check_bench_schema.py {args[0]} {synopsis}")
            try:
                print(f"ok   {run(*args[1:])}")
            except CheckFailed as exc:
                print(f"FAIL {exc}")
                return 1
            return 0
        return check_schema(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
