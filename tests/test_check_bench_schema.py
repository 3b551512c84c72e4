#!/usr/bin/env python3
"""Tests for tools/check_bench_schema.py against the metric catalog printed
by `realm_cli catalog` from the same build.

Usage: test_check_bench_schema.py REALM_CLI [unittest args]
"""

import copy
import glob
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


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    REALM_CLI = sys.argv.pop(1)
    unittest.main()
