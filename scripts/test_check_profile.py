#!/usr/bin/env python3
"""Unit coverage for check_profile.py's validation rules.

Each test feeds check_profile()/compare_baseline() a doc derived from a
known-good sharqfec.profile.v1 and asserts the exact failure (or absence
of one). The regression focus: by-shard slices silently disagreeing with
their totals, Channel-A drift sailing through a baseline comparison, and
the memory-attribution gate accepting a census that covers almost none of
the resident set.

Run directly (python3 scripts/test_check_profile.py) or via ctest/CI.
"""

import copy
import importlib.util
import math
import pathlib
import unittest

_HERE = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "check_profile", _HERE / "check_profile.py")
check_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_profile)


def hist(count=0, sum_s=0.0, buckets=()):
    return {"count": count, "sum_s": sum_s,
            "buckets": [{"le_s": le, "n": n} for le, n in buckets]}


def good_doc():
    return {
        "schema": check_profile.SCHEMA,
        "deterministic": {
            "shards": 2,
            "scopes": {
                "event_loop": {"total": 1000, "by_shard": [600, 400]},
                "net_forward": {"total": 420, "by_shard": [300, 120]},
            },
            "counters": {
                "events_dispatched": {"total": 1000, "by_shard": [600, 400]},
                "windows": {"total": 10, "by_shard": [10, 0]},
                "barriers": {"total": 10, "by_shard": [10, 0]},
            },
            "memory": {
                "peer_tables": {"live_bytes": 9000, "peak_bytes": 10000},
                "event_queue": {"live_bytes": 800000, "peak_bytes": 900000},
            },
        },
        "timing": {
            "clock": "tsc",
            "sample_period": 8,
            "wall_s": 2.0,
            "rss_delta_bytes": 1000000,
            "env": {"tool": "unit-test"},
            "self_time": {
                "event_loop": {"total_s": 1.1, "by_shard_s": [0.6, 0.5]},
                "net_forward": {"total_s": 0.5, "by_shard_s": [0.3, 0.2]},
            },
            "barrier_wait_by_shard_s": [0.01, 0.02],
            "truncated_scopes": 0,
            "histograms": {
                "barrier_wait": hist(3, 0.03, [(0.01, 1), (0.02, 2)]),
                "window_span": hist(10, 0.5, [(0.1, 10)]),
                "stall_window": hist(),
            },
        },
    }


def run(doc):
    errors, _, _ = check_profile.check_profile(doc)
    return errors


def run_baseline(doc, base, time_tol=10.0, mem_tol=0.25):
    errors = []
    check_profile.compare_baseline(
        doc["deterministic"], doc["timing"],
        base["deterministic"], base["timing"],
        time_tol, mem_tol, errors.append)
    return errors


class CheckProfileTest(unittest.TestCase):
    def assert_error(self, errors, needle):
        self.assertTrue(any(needle in e for e in errors),
                        f"no error containing {needle!r} in {errors!r}")

    def test_good_doc_passes(self):
        self.assertEqual(run(good_doc()), [])

    def test_wrong_schema(self):
        doc = good_doc()
        doc["schema"] = "sharqfec.profile.v0"
        self.assert_error(run(doc), "schema")

    def test_missing_timing_section(self):
        doc = good_doc()
        del doc["timing"]
        self.assert_error(run(doc), "timing section missing")

    def test_by_shard_must_sum_to_total(self):
        doc = good_doc()
        doc["deterministic"]["scopes"]["net_forward"]["by_shard"] = [300, 100]
        self.assert_error(run(doc), "sums to 400, total says 420")

    def test_by_shard_length_must_match_shards(self):
        doc = good_doc()
        doc["deterministic"]["scopes"]["net_forward"]["by_shard"] = [420]
        self.assert_error(run(doc), "exactly 2 entries")

    def test_nan_wall_s_is_rejected(self):
        doc = good_doc()
        doc["timing"]["wall_s"] = math.nan
        self.assert_error(run(doc), "wall_s")

    def test_negative_counter_is_rejected(self):
        doc = good_doc()
        doc["deterministic"]["counters"]["windows"]["total"] = -1
        self.assert_error(run(doc), "counters.windows")

    def test_live_bytes_above_peak_is_rejected(self):
        doc = good_doc()
        doc["deterministic"]["memory"]["peer_tables"]["live_bytes"] = 20000
        self.assert_error(run(doc), "live_bytes 20000 > peak_bytes")

    def test_self_time_may_exceed_wall_within_sampling_slack(self):
        # Sampled estimates scaled back up can legitimately land a little
        # above wall_s; only beyond 25% is it a calibration bug.
        doc = good_doc()
        doc["timing"]["self_time"]["event_loop"] = {
            "total_s": 1.9, "by_shard_s": [1.0, 0.9]}
        self.assertEqual(run(doc), [])
        doc["timing"]["self_time"]["event_loop"] = {
            "total_s": 2.5, "by_shard_s": [1.5, 1.0]}
        self.assert_error(run(doc), "more than")

    def test_self_time_budget_scales_with_workers(self):
        # Self time is summed over worker threads: a two-worker run may
        # attribute up to twice its wall clock.
        doc = good_doc()
        doc["timing"]["env"]["threads"] = "2"
        doc["timing"]["self_time"]["event_loop"] = {
            "total_s": 4.0, "by_shard_s": [2.2, 1.8]}
        self.assertEqual(run(doc), [])
        doc["timing"]["self_time"]["event_loop"] = {
            "total_s": 5.5, "by_shard_s": [3.0, 2.5]}
        self.assert_error(run(doc), "x 2 worker(s)")

    def test_serial_self_time_over_wall_still_fails(self):
        # A serial driver writes threads "0": the budget is one wall clock.
        doc = good_doc()
        doc["timing"]["env"]["threads"] = "0"
        doc["timing"]["self_time"]["event_loop"] = {
            "total_s": 4.0, "by_shard_s": [2.2, 1.8]}
        self.assert_error(run(doc), "x 1 worker(s)")

    def test_bad_sample_period_is_rejected(self):
        doc = good_doc()
        doc["timing"]["sample_period"] = 0
        self.assert_error(run(doc), "sample_period")

    def test_histogram_bucket_sum_must_match_count(self):
        doc = good_doc()
        doc["timing"]["histograms"]["window_span"] = hist(10, 0.5, [(0.1, 7)])
        self.assert_error(run(doc), "buckets hold 7 samples, count says 10")

    def test_empty_profile_is_not_a_baseline(self):
        doc = good_doc()
        for table in ("scopes", "counters"):
            for entry in doc["deterministic"][table].values():
                entry["total"] = 0
                entry["by_shard"] = [0, 0]
        self.assert_error(run(doc), "events_dispatched is 0")

    def test_windows_without_barriers_is_rejected(self):
        doc = good_doc()
        doc["deterministic"]["counters"]["barriers"] = {
            "total": 0, "by_shard": [0, 0]}
        self.assert_error(run(doc), "0 barriers")

    def test_baseline_self_compare_passes(self):
        doc = good_doc()
        self.assertEqual(run_baseline(doc, copy.deepcopy(doc)), [])

    def test_baseline_channel_a_drift_is_exact(self):
        doc = good_doc()
        base = copy.deepcopy(doc)
        doc["deterministic"]["counters"]["events_dispatched"]["total"] = 1001
        self.assert_error(run_baseline(doc, base),
                          "Channel A must match exactly")

    def test_baseline_missing_scope_is_a_drift(self):
        doc = good_doc()
        base = copy.deepcopy(doc)
        del doc["deterministic"]["scopes"]["net_forward"]
        self.assert_error(run_baseline(doc, base), "net_forward")

    def test_baseline_memory_tolerance(self):
        doc = good_doc()
        base = copy.deepcopy(doc)
        doc["deterministic"]["memory"]["event_queue"]["peak_bytes"] = 1000000
        self.assertEqual(run_baseline(doc, base), [])  # ~11% move, tol 25%
        doc["deterministic"]["memory"]["event_queue"]["peak_bytes"] = 2000000
        self.assert_error(run_baseline(doc, base), "memory.event_queue")

    def test_baseline_wall_time_is_generous(self):
        doc = good_doc()
        base = copy.deepcopy(doc)
        doc["timing"]["wall_s"] = 15.0  # 7.5x on tol 10x: fine
        self.assertEqual(run_baseline(doc, base), [])
        doc["timing"]["wall_s"] = 2000.0
        self.assert_error(run_baseline(doc, base), "wall_s")


if __name__ == "__main__":
    unittest.main()
