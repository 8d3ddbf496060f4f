#!/usr/bin/env python3
"""Unit coverage for check_bench.py's validation rules.

Each test feeds check() a doc derived from a known-good baseline and
asserts the exact failure (or absence of one). The regression focus is
the three silent-pass bugs: duplicate case labels, non-finite
events_per_sec (json.load parses NaN!), and killed/incomplete points
sailing through when --require-complete is off — plus the early-continue
bug where one case's schema error suppressed every later case's sanity
checks.

Run directly (python3 scripts/test_check_bench.py) or via ctest/CI.
"""

import importlib.util
import math
import pathlib
import unittest

_HERE = pathlib.Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench", _HERE / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def good_case(name="d2_f4_smoke", **overrides):
    case = {
        "name": name,
        "threads": 0,
        "shards": 0,
        "zone_depth": 2,
        "zone_levels": 3,
        "fanout": 4,
        "leaves_per_hub": 8,
        "receivers": 148,
        "nodes": 149,
        "groups": 2,
        "horizon_s": 20.0,
        "events": 151000,
        "wall_s": 0.13,
        "events_per_sec": 151000 / 0.13,
        "queue_high_water": 909.0,
        "rss_delta_bytes": 9000000,
        "bytes_per_receiver": 9000000 / 148,
        "complete_receivers": 148,
        "mem_peak_bytes": {"agent_objects": 400000, "peer_tables": 300000},
    }
    case.update(overrides)
    return case


def good_doc(*cases):
    return {
        "schema": check_bench.SCHEMA,
        "peak_rss_bytes": 1 << 30,
        "cases": list(cases) or [good_case()],
    }


def run(doc, min_receivers=None, require_complete=False,
        max_kb_per_receiver=None):
    return check_bench.check(doc, min_receivers, require_complete,
                             max_kb_per_receiver)


class CheckBenchTest(unittest.TestCase):
    def assert_error(self, errors, needle):
        self.assertTrue(any(needle in e for e in errors),
                        f"no error containing {needle!r} in {errors!r}")

    def test_good_doc_passes(self):
        self.assertEqual(run(good_doc()), [])

    def test_sharded_case_passes(self):
        doc = good_doc(good_case(),
                       good_case(name="d2_f4_smoke_t4", threads=4, shards=8))
        self.assertEqual(run(doc), [])

    def test_duplicate_names_are_a_hard_error(self):
        doc = good_doc(good_case(), good_case())
        self.assert_error(run(doc), "duplicate case names")

    def test_nan_events_per_sec_is_a_hard_error(self):
        doc = good_doc(good_case(events_per_sec=math.nan))
        self.assert_error(run(doc), "finite")

    def test_infinite_wall_s_is_a_hard_error(self):
        doc = good_doc(good_case(wall_s=math.inf))
        self.assert_error(run(doc), "finite")

    def test_negative_events_per_sec_is_a_hard_error(self):
        doc = good_doc(good_case(events_per_sec=-1.0))
        self.assert_error(run(doc), "must be positive")

    def test_killed_point_fails_without_require_complete(self):
        doc = good_doc(good_case(complete_receivers=0))
        self.assert_error(run(doc, require_complete=False),
                          "killed or incomplete")

    def test_partial_point_passes_without_require_complete(self):
        doc = good_doc(good_case(complete_receivers=100))
        self.assertEqual(run(doc), [])

    def test_partial_point_fails_with_require_complete(self):
        doc = good_doc(good_case(complete_receivers=100))
        self.assert_error(run(doc, require_complete=True),
                          "completed every group")

    def test_schema_error_in_one_case_does_not_mask_the_next(self):
        # Regression: check() used to skip sanity for every case after the
        # first error ("if errors: continue" against the global list).
        broken = good_case(name="broken", events="many")
        inconsistent = good_case(name="inconsistent",
                                 events_per_sec=1.0)  # wildly off events/wall
        errors = run(good_doc(broken, inconsistent))
        self.assert_error(errors, "'broken'")
        self.assert_error(errors, "'inconsistent'")
        self.assert_error(errors, "inconsistent with events/wall_s")

    def test_short_run_written_at_full_precision_passes(self):
        # A --smoke case that finished in 0.045 s, as macro_sim writes it:
        # wall_s at full precision ("%.17g") and events_per_sec from the
        # same unrounded time ("%.0f"), so the two agree. Rounded to two
        # decimals, the same wall_s read 0.05 and implied 10% fewer events
        # per second than events_per_sec, just past the checker's slack.
        wall, events = 0.045, 149200
        case = good_case(events=events, wall_s=float("%.17g" % wall),
                         events_per_sec=float("%.0f" % (events / wall)))
        self.assertEqual(run(good_doc(case)), [])
        rounded = dict(case, wall_s=float("%.2f" % wall))
        self.assert_error(run(good_doc(rounded)),
                          "inconsistent with events/wall_s")

    def test_threads_shards_must_agree(self):
        doc = good_doc(good_case(threads=4, shards=0))
        self.assert_error(run(doc), "disagree about the engine")
        doc = good_doc(good_case(threads=2, shards=1))
        self.assert_error(run(doc), "not a real partition")

    def test_zero_queue_high_water_with_events_is_rejected(self):
        # Regression: sharded macro_sim rows read the unlabeled queue gauge,
        # which stays 0 once every shard registers its own.
        doc = good_doc(good_case(name="d2_f4_smoke_t4", threads=4, shards=8,
                                 queue_high_water=0))
        self.assert_error(run(doc), "queue_high_water reads 0")

    def test_bool_is_not_an_int(self):
        doc = good_doc(good_case(receivers=True))
        self.assert_error(run(doc), "receivers")

    def test_unknown_field_is_rejected(self):
        doc = good_doc(good_case(speedup=3.0))
        self.assert_error(run(doc), "unknown fields")

    def test_missing_census_is_rejected(self):
        case = good_case()
        del case["mem_peak_bytes"]
        self.assert_error(run(good_doc(case)), "mem_peak_bytes is None")

    def test_malformed_census_is_rejected(self):
        self.assert_error(run(good_doc(good_case(mem_peak_bytes={}))),
                          "expected a non-empty object")
        self.assert_error(
            run(good_doc(good_case(mem_peak_bytes={"peer_tables": -1}))),
            "expected a non-negative integer")

    def test_min_receivers_gate(self):
        self.assert_error(run(good_doc(), min_receivers=100000),
                          "--min-receivers demands")
        self.assertEqual(run(good_doc(), min_receivers=100), [])

    def test_memory_budget_gate(self):
        doc = good_doc(good_case(bytes_per_receiver=200 * 1024.0))
        self.assert_error(run(doc, max_kb_per_receiver=100),
                          "KiB/receiver budget")


    def test_census_matching_the_baseline_passes(self):
        self.assertEqual(check_bench.check_census(good_doc(), good_doc()), [])

    def test_census_drift_in_one_category_is_reported(self):
        fresh = good_doc(good_case(
            mem_peak_bytes={"agent_objects": 400000, "peer_tables": 299999}))
        errs = check_bench.check_census(fresh, good_doc())
        self.assertEqual(len(errs), 1)
        self.assertIn("'peer_tables'", errs[0])
        self.assertIn("299999", errs[0])

    def test_census_category_missing_from_either_side_is_reported(self):
        fresh = good_doc(good_case(
            mem_peak_bytes={"agent_objects": 400000, "peer_tables": 300000,
                            "rng_streams": 64}))
        errs = check_bench.check_census(fresh, good_doc())
        self.assertEqual(len(errs), 1)
        self.assertIn("'rng_streams'", errs[0])

    def test_census_case_absent_from_the_baseline_is_reported(self):
        errs = check_bench.check_census(good_doc(good_case(name="other")),
                                        good_doc())
        self.assertEqual(len(errs), 1)
        self.assertIn("no mem_peak_bytes row", errs[0])


if __name__ == "__main__":
    unittest.main()
