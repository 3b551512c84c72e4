#!/usr/bin/env python3
"""Tests for tools/check_bench_schema.py against the metric catalog printed
by `realm_cli catalog` from the same build.

Usage: test_check_bench_schema.py REALM_CLI [unittest args]
"""

import copy
import glob
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO, "tools", "check_bench_schema.py")
REALM_CLI = None  # set from argv in __main__


def committed_artifacts():
    return sorted(glob.glob(os.path.join(REPO, "bench_out", "BENCH_*.json")))


class CheckBenchSchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        out = subprocess.run([REALM_CLI, "catalog"], check=True,
                             capture_output=True, text=True).stdout
        cls.catalog = json.loads(out)
        cls.catalog_path = cls.write("catalog.json", cls.catalog)
        # A minimal valid document: every catalog name present.
        empty_hist = {"count": 0, "total": 0, "mean": 0, "min": 0, "max": 0,
                      "p50": 0, "p95": 0, "p99": 0,
                      "buckets": [0] * cls.catalog["histogram_buckets"]}
        cls.base = {
            "schema": "realm-bench-v3",
            "meta": {"bench": "unit", "generated_utc": "2026-01-01T00:00:00Z"},
            "run": {"host": "h", "commit": "c", "hw_threads": 1},
            "metrics": {"requests_per_s": 100.0, "reply_digest": "ab12",
                        "slo_ping_w10_count": 40, "slo_ping_w10_p99_us": 1.5,
                        "slo_stats_w10_count": 30, "slo_stats_w10_p99_us": 2.5,
                        "slo_ping_w60_count": 0,
                        "realm:m=16,t=0.bias_exact": 0.25},
            "counters": {n: 7 for n in cls.catalog["counters"]},
            "gauges": {n: 1 for n in cls.catalog["gauges"]},
            "spans": {},
            "value_histograms": {n: empty_hist
                                 for n in cls.catalog["value_histograms"]},
            "timeline": [{"t_us": 0, "rss_kb": 1, "pool_workers": 1,
                          "pool_active": 0, "pool_queue_depth": 0,
                          "counters": {}}] * 3,
        }
        cls.base_path = cls.write("base.json", cls.base)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @classmethod
    def write(cls, name, doc):
        path = os.path.join(cls.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def variant(self, name, edit):
        doc = copy.deepcopy(self.base)
        edit(doc)
        return self.write(name, doc)

    def run_tool(self, *args):
        proc = subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def assert_exit(self, code, *args):
        rc, out = self.run_tool(*args)
        self.assertEqual(rc, code, f"{args}:\n{out}")
        return out

    # -- schema mode ---------------------------------------------------------

    def test_every_committed_artifact_passes(self):
        files = committed_artifacts()
        self.assertTrue(files)
        self.assert_exit(0, f"--catalog={self.catalog_path}", *files)

    def test_minimal_document_passes(self):
        self.assert_exit(0, f"--catalog={self.catalog_path}", self.base_path)

    def test_missing_catalog_counter_fails_and_names_it(self):
        for name in (self.catalog["counters"][0], self.catalog["counters"][-1]):
            path = self.variant("no_counter.json",
                                lambda d, n=name: d["counters"].pop(n))
            out = self.assert_exit(1, f"--catalog={self.catalog_path}", path)
            self.assertIn(f"counters missing {name!r}", out)

    def test_extra_catalog_name_fails_and_names_it(self):
        def edit(d):
            d["counters"]["no_such_counter"] = 0
            d["gauges"]["no_such_gauge"] = 1
            d["value_histograms"]["no_such_histogram"] = (
                d["value_histograms"][self.catalog["value_histograms"][0]])

        out = self.assert_exit(1, f"--catalog={self.catalog_path}",
                               self.variant("extra_names.json", edit))
        for section, name in (("counters", "no_such_counter"),
                              ("gauges", "no_such_gauge"),
                              ("value_histograms", "no_such_histogram")):
            self.assertIn(f"{section} has {name!r}, which the catalog lacks", out)

    def test_missing_gauge_and_value_histogram_fail(self):
        gauge = self.catalog["gauges"][0]
        vhist = self.catalog["value_histograms"][0]

        def edit(d):
            d["gauges"].pop(gauge)
            d["value_histograms"].pop(vhist)

        out = self.assert_exit(1, f"--catalog={self.catalog_path}",
                               self.variant("no_gauge.json", edit))
        self.assertIn(f"gauges missing {gauge!r}", out)
        self.assertIn(f"value_histograms missing {vhist!r}", out)

    def test_bucket_count_comes_from_catalog(self):
        vhist = self.catalog["value_histograms"][0]
        path = self.variant(
            "short_buckets.json",
            lambda d: d["value_histograms"].__setitem__(
                vhist, dict(d["value_histograms"][vhist], buckets=[0] * 3)))
        out = self.assert_exit(1, f"--catalog={self.catalog_path}", path)
        self.assertIn(f"{self.catalog['histogram_buckets']}-entry list", out)

    def test_nonzero_window_without_p99_fails(self):
        path = self.variant("top.json",
                            lambda d: d["metrics"].pop("slo_stats_w10_p99_us"))
        out = self.assert_exit(1, f"--catalog={self.catalog_path}", path)
        self.assertIn("slo_stats_w10_count = 30 but slo_stats_w10_p99_us is missing",
                      out)

    def test_schema_mode_usage_errors(self):
        self.assert_exit(2)
        self.assert_exit(2, self.base_path)  # no --catalog
        self.assert_exit(2, f"--catalog={self.catalog_path}")  # no files
        self.assert_exit(2, f"--catalog={self.base_path}", self.base_path)

    # -- --min ---------------------------------------------------------------

    def test_min_passes(self):
        self.assert_exit(0, "--min", self.base_path, "metrics.requests_per_s", "100")
        self.assert_exit(0, "--min", self.base_path,
                         f"counters.{self.catalog['counters'][0]}", "7")
        self.assert_exit(0, "--min", self.base_path, "timeline", "3")
        self.assert_exit(0, "--min", self.base_path, "metrics.slo_*_w10_count", "70")
        self.assert_exit(0, "--min", self.base_path,
                         "metrics.realm:m=16,t=0.bias_exact", "0.25")

    def test_min_fails(self):
        self.assert_exit(1, "--min", self.base_path, "metrics.requests_per_s", "100.5")
        self.assert_exit(1, "--min", self.base_path, "timeline", "4")
        out = self.assert_exit(1, "--min", self.base_path,
                               "metrics.slo_*_w10_count", "71")
        self.assertIn("70 < required 71", out)
        self.assert_exit(1, "--min", self.base_path, "metrics.no_such_metric", "1")
        self.assert_exit(1, "--min", self.base_path, "metrics.nothing_*", "1")
        self.assert_exit(1, "--min", self.base_path, "metrics.reply_digest", "1")
        self.assert_exit(1, "--min", os.path.join(self.tmp.name, "absent.json"),
                         "timeline", "1")

    def test_min_usage_errors(self):
        self.assert_exit(2, "--min", self.base_path, "timeline")
        self.assert_exit(2, "--min", self.base_path, "timeline", "many")

    # -- --ratio -------------------------------------------------------------

    def test_ratio(self):
        fast = self.variant("fast.json",
                            lambda d: d["metrics"].update(requests_per_s=1000.0))
        self.assert_exit(0, "--ratio", self.base_path, fast, "metrics.requests_per_s", "10")
        self.assert_exit(0, "--ratio", self.base_path, self.base_path,
                         "counters.net_requests", "1")
        out = self.assert_exit(1, "--ratio", fast, self.base_path,
                               "metrics.requests_per_s", "10")
        self.assertIn("0.10 < required 10", out)
        zero = self.variant("zero.json",
                            lambda d: d["metrics"].update(requests_per_s=0))
        self.assert_exit(1, "--ratio", zero, fast, "metrics.requests_per_s", "1")
        self.assert_exit(2, "--ratio", self.base_path, fast, "metrics.requests_per_s")
        self.assert_exit(2, "--ratio", self.base_path, fast, "metrics.requests_per_s", "x")

    # -- --equal -------------------------------------------------------------

    def test_equal(self):
        twin = self.variant("twin.json", lambda d: d["meta"].update(bench="twin"))
        self.assert_exit(0, "--equal", self.base_path, twin, "metrics")
        self.assert_exit(0, "--equal", self.base_path, twin, "metrics.reply_digest")
        drift = self.variant("drift.json",
                             lambda d: d["metrics"].update(reply_digest="cd34", extra=1))
        out = self.assert_exit(1, "--equal", self.base_path, drift, "metrics")
        self.assertIn("'reply_digest': 'ab12' != 'cd34'", out)
        self.assertIn("only in", out)
        self.assertIn("'extra'", out)
        self.assert_exit(1, "--equal", self.base_path, drift, "metrics.reply_digest")
        self.assert_exit(1, "--equal", self.base_path, twin, "metrics.no_such_metric")
        self.assert_exit(2, "--equal", self.base_path, twin)
        self.assert_exit(2, "--equal", self.base_path, twin, "metrics", "extra")

    # -- --diff --------------------------------------------------------------

    def doc(self, name, bench="unit", metrics=None, spans=None, counters=None):
        """A minimal bench document for --diff; `spans` maps a span name to
        the columns that differ from a fixed default row."""
        row = {"count": 4, "total_us": 64.0, "p50_us": 8.0, "p95_us": 16.0,
               "p99_us": 64.0}
        return self.write("diff_" + name, {
            "schema": "realm-bench-v3",
            "meta": {"bench": bench},
            "run": {"host": "h", "commit": name},
            "metrics": metrics or {},
            "counters": counters or {},
            "spans": {k: dict(row, **v) for k, v in (spans or {}).items()},
        })

    def diff(self, code, *args):
        return self.assert_exit(code, "--diff", *args)

    def test_diff_classifier_table(self):
        spec = importlib.util.spec_from_file_location("check_bench_schema", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        table = {
            "metrics.speedup_1t": "higher",
            "metrics.batched_sps_1t": "higher",
            "metrics.blur_mpix_per_s": "higher",
            "metrics.blur_psnr/realm:m=16,t=8": "higher",
            "metrics.top1_acc": "higher",
            "metrics.startup_ns": "lower",
            "metrics.decode_ms": "lower",
            "metrics.total_latency": "lower",
            "spans.mc/shard.p95_us": "lower",
            "spans.pool/task.total_us": "lower",
            "spans.pool/task.count": "info",
            "counters.mc_samples": "info",
            "value_histograms.pool_queue_wait_ns.p95": "info",
            "metrics.mean_rel_error": "info",
            "metrics.uptime_s": "info",
        }
        for key, direction in table.items():
            self.assertEqual(tool.classify(key), direction, key)

    def test_diff_identical_documents_pass(self):
        out = self.diff(0, self.base_path, self.base_path, "--verbose")
        self.assertIn("ok   3 directional metric(s) within tolerance", out)
        # Numbers only: the string metric is not compared.
        self.assertIn("metrics.requests_per_s", out)
        self.assertNotIn("metrics.reply_digest", out)
        vhist = self.catalog["value_histograms"][0]
        self.assertIn(f"value_histograms.{vhist}.p95 ", out)
        self.assertNotIn(f"value_histograms.{vhist}.p50 ", out)
        counter = self.catalog["counters"][0]
        self.assertIn(f"counters.{counter} ", out)

    def test_diff_slowdown_on_lower_better_fails(self):
        # total_us is exact (not bucketed): the plain tolerance applies.
        base = self.doc("base.json", spans={"pool/task": {"total_us": 16.0}})
        slow = self.doc("slow.json", spans={"pool/task": {"total_us": 32.0}})
        out = self.diff(1, base, slow)
        self.assertIn("REGRESSION: 1 of 4 directional", out)
        self.assertIn("spans.pool/task.total_us", out)
        self.assertIn("+100.0%", out)
        self.diff(0, slow, base)  # the same move the good way

    def test_diff_percentile_keys_get_one_bucket_of_slack(self):
        base = self.doc("base.json", spans={"pool/task": {"p95_us": 16.0}})
        flap = self.doc("flap.json", spans={"pool/task": {"p95_us": 32.0}})  # 2x
        real = self.doc("real.json", spans={"pool/task": {"p95_us": 48.0}})  # 3x
        self.diff(0, base, flap)
        out = self.diff(1, base, real)
        self.assertIn("spans.pool/task.p95_us", out)
        self.diff(0, base, real, "--tolerance=2.0")

    def test_diff_throughput_drop_on_higher_better_fails(self):
        base = self.doc("base.json", metrics={"batched_sps_1t": 1.6e6})
        drop = self.doc("drop.json", metrics={"batched_sps_1t": 0.8e6})
        self.assertIn("-50.0%", self.diff(1, base, drop))
        self.diff(0, drop, base)

    def test_diff_tolerance_and_per_key_override(self):
        base = self.doc("base.json", metrics={"batched_sps_1t": 1.6e6})
        wobble = self.doc("wobble.json", metrics={"batched_sps_1t": 1.52e6})  # -5%
        self.diff(0, base, wobble)
        self.diff(1, base, wobble, "--tol=metrics.batched_sps_1t=0.01")
        self.diff(0, base, wobble, "--tolerance=0.01",
                  "--tol=metrics.batched_sps_1t=0.20")

    def test_diff_null_on_directional_key_fails(self):
        base = self.doc("base.json", metrics={"speedup_1t": 5.25,
                                              "mean_rel_error": 0.01})
        nan = self.doc("nan.json", metrics={"speedup_1t": None,
                                            "mean_rel_error": 0.01})
        self.assertIn("[NaN value]", self.diff(1, base, nan))
        self.assertIn("[NaN value]", self.diff(1, nan, base))
        nan_info = self.doc("nan_info.json", metrics={"speedup_1t": 5.25,
                                                      "mean_rel_error": None})
        self.diff(0, base, nan_info)

    def test_diff_missing_directional_key_fails_and_new_key_passes(self):
        base = self.doc("base.json", metrics={"speedup_1t": 5.25},
                        counters={"mc_samples": 9})
        current = self.doc("current.json", counters={"mc_samples": 9})
        self.assertIn("[missing from current run]", self.diff(1, base, current))
        self.diff(0, base, self.doc("no_counter.json", metrics={"speedup_1t": 5.25}))
        out = self.diff(0, current, base, "--verbose")
        self.assertIn("[new key (not in baseline)]", out)

    def test_diff_zero_baseline_rules(self):
        zero = self.doc("zero.json", spans={"pool/task": {"p95_us": 0.0}})
        nonzero = self.doc("nonzero.json", spans={"pool/task": {"p95_us": 1.0}})
        self.diff(0, zero, zero)
        self.diff(1, zero, nonzero)  # was instantaneous, now takes time
        hb_zero = self.doc("hb_zero.json", metrics={"speedup_1t": 0})
        hb_any = self.doc("hb_any.json", metrics={"speedup_1t": 1})
        self.diff(0, hb_zero, hb_any)

    def test_diff_baselines_reduce_to_lower_median(self):
        docs = [self.doc(f"m{v}.json", metrics={"speedup_1t": v}) for v in (1, 4, 2)]
        two = self.doc("two.json", metrics={"speedup_1t": 2})
        out = self.diff(0, *docs, two, "--tolerance=0", "--verbose")
        self.assertIn("per-key median of 3 documents", out)
        self.assertIn("baseline=2 current=2", out)
        docs.append(self.doc("m8.json", metrics={"speedup_1t": 8}))
        self.assertIn("baseline=2 current=2",
                      self.diff(0, *docs, two, "--tolerance=0", "--verbose"))
        # NaN is skipped per key; a key NaN in every baseline is left out,
        # so its absence from CURRENT is not a "missing" regression.
        docs.append(self.doc("nan.json", metrics={"speedup_1t": None,
                                                  "only_nan_us": None}))
        out = self.diff(0, *docs, two, "--tolerance=0", "--verbose")
        self.assertIn("baseline=2 current=2", out)
        self.assertNotIn("only_nan_us", out)

    def test_diff_bench_mismatch_and_usage_errors(self):
        a = self.doc("a.json", metrics={"speedup_1t": 1})
        b = self.doc("b.json", bench="other", metrics={"speedup_1t": 1})
        self.assertIn("bench mismatch", self.diff(2, a, b))
        self.diff(2, a)
        self.diff(2, a, a, "--tolerance=-1")
        self.diff(2, a, a, "--tolerance=fast")
        self.diff(2, a, a, "--tol=0.5")
        self.diff(2, a, a, "--quiet")
        self.diff(2, a, os.path.join(self.tmp.name, "absent.json"))
        no_bench = self.write("no_bench.json", {"metrics": {}})
        self.diff(2, a, no_bench)

    def test_diff_realm_top_snapshots(self):
        # Later snapshots always have a larger uptime_s: that is not a
        # slowdown.
        def snapshot(name, p99_us, uptime_s=30.0):
            return self.doc(name, bench="realm_top", metrics={
                "uptime_s": uptime_s, "rss_kb": 8192, "net_requests": 1200,
                "slo_multiply_batch_w10_count": 400,
                "slo_multiply_batch_w10_p50_us": 120.0,
                "slo_multiply_batch_w10_p99_us": p99_us,
                "slo_multiply_batch_w10_err_pct": 0.0})
        first = snapshot("top_a.json", 900.0)
        out = self.diff(0, first, snapshot("top_b.json", 950.0, 31.0), "--verbose")
        self.assertIn("ok   2 directional metric(s) within tolerance (7 keys", out)
        out = self.diff(1, first, snapshot("top_slow.json", 4000.0))
        self.assertIn("metrics.slo_multiply_batch_w10_p99_us", out)

    # -- realm_cli numeric arguments ----------------------------------------

    def test_realm_cli_rejects_malformed_numbers(self):
        for args in (["characterize", "calm", "abc"], ["characterize", "calm", "0"],
                     ["predict", "16x"], ["synth", "calm", "-4"], ["sij", "8", "q"],
                     ["predict", "8", ""],
                     # M and q past the one bound every LUT takes (core/lut.hpp).
                     ["predict", "512"], ["sij", "8", "31"],
                     ["stats", "--port", "abc"]):
            proc = subprocess.run([REALM_CLI, *args], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, f"{args}: {proc.stdout}{proc.stderr}")
            self.assertIn("bad value for", proc.stderr, args)
        # A malformed spec parameter is an error, not REALM16.
        proc = subprocess.run([REALM_CLI, "characterize", "realm:m=16x", "4096"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("bad value for 'm'", proc.stderr)

    def test_realm_top_rejects_malformed_numbers(self):
        # Rejected while parsing, before any connection: "80x" is not port
        # 80, and an interval outside 50..60000 ms is not clamped into it.
        realm_top = os.path.join(os.path.dirname(REALM_CLI), "realm_top")
        for args in (["--port", "80x", "--once"], ["--port", "0", "--once"],
                     ["--port", "65536", "--once"],
                     ["--port", "9", "--interval-ms", "10"],
                     ["--port", "9", "--interval-ms", "60001"]):
            proc = subprocess.run([realm_top, *args], capture_output=True, text=True,
                                  timeout=60)
            self.assertEqual(proc.returncode, 2, f"{args}: {proc.stdout}{proc.stderr}")
            self.assertIn("bad value for", proc.stderr, args)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    REALM_CLI = sys.argv.pop(1)
    unittest.main()
