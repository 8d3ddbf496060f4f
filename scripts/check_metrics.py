#!/usr/bin/env python3
"""Validate a sharqfec metrics JSON export.

Usage: check_metrics.py METRICS.json [--require-traffic]

Checks, in order:
  schema     the top-level schema tag is sharqfec.metrics.v1
  shape      every family has a known type and well-formed values
             (counters are non-negative ints, gauges are numbers,
             histograms carry consistent count/buckets/overflow)
  catalog    the families a Figure-10 sharqfec run must register are
             all present
  traffic    with --require-traffic, the counters a lossy run cannot
             leave at zero (data sends, NACKs, repairs) are non-zero
  series     when the optional top-level "series" section is present
             (sharqfec_sim --metrics-json), it carries a positive
             bin_width and one numeric list per traffic class

Exit status 0 on success; prints one line per failure otherwise.
"""

import json
import sys

SCHEMA = "sharqfec.metrics.v1"

# Families every sharqfec run registers, whatever the topology.
REQUIRED = {
    "net.corrupted": "counter",
    "net.drops": "counter",
    "net.duplicated": "counter",
    "net.sends": "counter",
    "sharqfec.arrival_ewma": "gauge",
    "sharqfec.corrupt_rejects": "counter",
    "sharqfec.duplicate_rejects": "counter",
    "sharqfec.group_completion_seconds": "histogram",
    "sharqfec.malformed_rejects": "counter",
    "sharqfec.nacks_deduped": "counter",
    "sharqfec.nacks_sent": "counter",
    "sharqfec.nacks_suppressed": "counter",
    "sharqfec.peer_table_high_water": "gauge",
    "sharqfec.peers_expired": "counter",
    "sharqfec.pending_repair_high_water": "gauge",
    "sharqfec.preemptive_repairs": "counter",
    "sharqfec.repairs_sent": "counter",
    "sharqfec.rtt_samples": "counter",
    "sharqfec.session_msgs": "counter",
    "sharqfec.zcr_challenges": "counter",
    "sharqfec.zcr_expiries": "counter",
    "sharqfec.zcr_takeovers": "counter",
    "sharqfec.zlc_pred": "gauge",
    "sim.events_cancelled": "counter",
    "sim.events_fired": "counter",
    "sim.events_scheduled": "counter",
    "sim.queue_high_water": "gauge",
}

# Counters that cannot be zero after a completed lossy run.
NONZERO_ON_TRAFFIC = [
    "net.sends",
    "sharqfec.nacks_sent",
    "sharqfec.repairs_sent",
    "sharqfec.rtt_samples",
    "sharqfec.session_msgs",
    "sim.events_fired",
]


def counter_total(family):
    return sum(family["values"].values())


def check(doc, require_traffic):
    errors = []
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
        return errors
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("shape: top-level 'metrics' is not an object")
        return errors

    for name, fam in metrics.items():
        ftype = fam.get("type")
        values = fam.get("values")
        if ftype not in ("counter", "gauge", "histogram"):
            errors.append(f"shape: {name}: unknown type {ftype!r}")
            continue
        if not isinstance(values, dict) or not values:
            errors.append(f"shape: {name}: empty or missing values")
            continue
        for key, val in values.items():
            where = f"{name}[{key!r}]"
            if ftype == "counter":
                if not isinstance(val, int) or val < 0:
                    errors.append(f"shape: {where}: bad counter {val!r}")
            elif ftype == "gauge":
                if not isinstance(val, (int, float)):
                    errors.append(f"shape: {where}: bad gauge {val!r}")
            else:
                buckets = val.get("buckets")
                if not isinstance(buckets, list) or not buckets:
                    errors.append(f"shape: {where}: bad buckets")
                    continue
                binned = sum(buckets) + val.get("overflow", 0)
                if binned != val.get("count"):
                    errors.append(
                        f"shape: {where}: buckets+overflow {binned} "
                        f"!= count {val.get('count')}")

    for name, ftype in REQUIRED.items():
        fam = metrics.get(name)
        if fam is None:
            errors.append(f"catalog: missing family {name}")
        elif fam.get("type") != ftype:
            errors.append(
                f"catalog: {name}: expected {ftype}, got {fam.get('type')}")

    series = doc.get("series")
    if series is not None:
        classes = series.get("classes") if isinstance(series, dict) else None
        width = series.get("bin_width") if isinstance(series, dict) else None
        if not isinstance(width, (int, float)) or width <= 0:
            errors.append(f"series: bad bin_width {width!r}")
        if not isinstance(classes, dict):
            errors.append("series: 'classes' is not an object")
        else:
            expected = {"control", "data", "nack", "repair", "session"}
            if set(classes) != expected:
                errors.append(
                    f"series: class keys {sorted(classes)} != "
                    f"{sorted(expected)}")
            for cls, bins in classes.items():
                if not isinstance(bins, list) or not all(
                        isinstance(v, (int, float)) for v in bins):
                    errors.append(f"series: {cls}: bins are not numbers")

    if require_traffic:
        for name in NONZERO_ON_TRAFFIC:
            fam = metrics.get(name)
            if fam and fam.get("type") == "counter" and counter_total(fam) == 0:
                errors.append(f"traffic: {name} is zero after a lossy run")

    return errors


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    require_traffic = "--require-traffic" in argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as f:
        doc = json.load(f)
    errors = check(doc, require_traffic)
    for e in errors:
        print(f"check_metrics: {e}", file=sys.stderr)
    if not errors:
        n = len(doc["metrics"])
        print(f"check_metrics: OK ({n} families)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
