#!/usr/bin/env python3
"""Validate a macro-sim benchmark baseline (BENCH_sim.json from macro_sim).

Usage: check_bench.py BENCH_sim.json [--min-receivers N] [--require-complete]
       [--max-kb-per-receiver X]

Checks, in order:
  parse     the file is a single JSON object
  schema    it carries schema/peak_rss_bytes/cases with the right
            types, schema is "sharqfec-macro-sim-v1", and every case has
            the full column set (see CASE_FIELDS) plus a non-empty
            mem_peak_bytes census (category -> bytes); non-finite numbers
            (NaN/Infinity, which the JSON parser happily accepts) are
            rejected wherever they appear
  labels    case names are unique — a sweep that writes two rows under
            one label would let one silently shadow the other in any
            name-keyed comparison
  sanity    per case: receivers/nodes/events positive, wall_s positive,
            events_per_sec consistent with events/wall_s (10% slack),
            complete_receivers <= receivers, zone_levels = zone_depth + 1,
            queue_high_water > 0 whenever events ran (a 0 means the
            per-shard queue gauges were not read),
            threads/shards columns coherent. A point where *no* receiver
            completed is a hard error even without --require-complete: a
            killed or wedged benchmark run must never be committed as a
            baseline. Sanity is evaluated per case — a schema error in an
            earlier case no longer hides sanity failures in later ones.
  scale     with --min-receivers N, at least one case reaches N receivers
            (the committed baseline must include a macro-scale point)
  complete  with --require-complete, every case delivered every group to
            every receiver (complete_receivers == receivers)
  memory    with --max-kb-per-receiver X, no case spends more than X KiB
            of RSS growth per receiver (the per-receiver memory budget;
            guards against protocol-state regressions at macro scale)

Exit status 0 on success; prints one line per failure otherwise.
"""

import json
import math
import sys

SCHEMA = "sharqfec-macro-sim-v1"

# field -> (type(s), must_be_positive)
CASE_FIELDS = {
    "name": (str, False),
    "threads": (int, False),   # 0 = serial engine, >= 1 = shard runtime
    "shards": (int, False),    # 0 = serial engine, >= 2 when sharded
    "zone_depth": (int, True),
    "zone_levels": (int, True),
    "fanout": (int, True),
    "leaves_per_hub": (int, True),
    "receivers": (int, True),
    "nodes": (int, True),
    "groups": (int, True),
    "horizon_s": ((int, float), True),
    "events": (int, True),
    "wall_s": ((int, float), True),
    "events_per_sec": ((int, float), True),
    "queue_high_water": ((int, float), False),  # see the sanity rule
    "rss_delta_bytes": (int, False),
    "bytes_per_receiver": ((int, float), False),
    "complete_receivers": (int, False),
}

# "mem_peak_bytes" is the profiler census: category name -> retained
# bytes at end of run (docs/OBSERVABILITY.md, "Profiles"). Required: a
# baseline must say where its bytes went, not only how many there were.
CENSUS_FIELD = "mem_peak_bytes"


def check_mem_peak(case, where, bad):
    mem = case.get(CENSUS_FIELD)
    if not isinstance(mem, dict) or not mem:
        bad(f"{where}: mem_peak_bytes is {mem!r}, expected a non-empty "
            f"object of category -> bytes")
        return
    for cat, val in mem.items():
        if not isinstance(cat, str) or not cat:
            bad(f"{where}: mem_peak_bytes has a non-string category "
                f"{cat!r}")
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            bad(f"{where}: mem_peak_bytes[{cat!r}] is {val!r}, expected a "
                f"non-negative integer")


def check(doc, min_receivers, require_complete, max_kb_per_receiver=None):
    errors = []

    def bad(msg):
        errors.append(msg)

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        bad(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    peak = doc.get("peak_rss_bytes")
    if not isinstance(peak, int) or peak < 0:
        bad(f"peak_rss_bytes is {peak!r}, expected a non-negative integer")
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        return errors + ["cases is missing, not a list, or empty"]

    names = [c.get("name") for c in cases
             if isinstance(c, dict) and isinstance(c.get("name"), str)]
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        bad(f"duplicate case names {dups}: every benchmark point must "
            f"carry a unique label")

    for i, case in enumerate(cases):
        where = f"case {i}"
        if not isinstance(case, dict):
            bad(f"{where}: not a JSON object")
            continue
        if isinstance(case.get("name"), str):
            where = f"case {case['name']!r}"
        before = len(errors)
        for field, (types, positive) in CASE_FIELDS.items():
            val = case.get(field)
            if not isinstance(val, types) or isinstance(val, bool):
                bad(f"{where}: {field} is {val!r}, expected {types}")
            elif isinstance(val, float) and not math.isfinite(val):
                bad(f"{where}: {field} is {val!r}, expected a finite number")
            elif positive and val <= 0:
                bad(f"{where}: {field} must be positive, got {val!r}")
        extra = set(case) - set(CASE_FIELDS) - {CENSUS_FIELD}
        if extra:
            bad(f"{where}: unknown fields {sorted(extra)}")
        check_mem_peak(case, where, bad)
        if len(errors) > before:
            continue  # this case's sanity checks assume its schema held

        if case["zone_levels"] != case["zone_depth"] + 1:
            bad(f"{where}: zone_levels {case['zone_levels']} != "
                f"zone_depth {case['zone_depth']} + 1")
        if case["receivers"] >= case["nodes"]:
            bad(f"{where}: receivers {case['receivers']} >= "
                f"nodes {case['nodes']} (the source is a node too)")
        implied = case["events"] / case["wall_s"]
        if abs(implied - case["events_per_sec"]) > 0.1 * implied:
            bad(f"{where}: events_per_sec {case['events_per_sec']:.0f} "
                f"inconsistent with events/wall_s {implied:.0f}")
        if case["queue_high_water"] <= 0 < case["events"]:
            bad(f"{where}: queue_high_water reads {case['queue_high_water']!r} "
                f"after {case['events']} events — the queue gauge was not "
                f"read (sharded runs keep one gauge per shard)")
        if case["complete_receivers"] > case["receivers"]:
            bad(f"{where}: complete_receivers {case['complete_receivers']} > "
                f"receivers {case['receivers']}")
        if case["complete_receivers"] == 0:
            bad(f"{where}: no receiver completed any transfer — a killed "
                f"or incomplete benchmark run is not a valid baseline point")
        if case["threads"] < 0 or case["shards"] < 0:
            bad(f"{where}: threads/shards must be non-negative")
        elif (case["threads"] > 0) != (case["shards"] > 0):
            bad(f"{where}: threads {case['threads']} and shards "
                f"{case['shards']} disagree about the engine (both zero "
                f"for serial, both positive for the shard runtime)")
        elif case["shards"] == 1:
            bad(f"{where}: shards == 1 is not a real partition")
        if require_complete and case["complete_receivers"] != case["receivers"]:
            bad(f"{where}: only {case['complete_receivers']}/"
                f"{case['receivers']} receivers completed every group")
        if max_kb_per_receiver is not None:
            limit = max_kb_per_receiver * 1024
            if case["bytes_per_receiver"] > limit:
                bad(f"{where}: bytes_per_receiver "
                    f"{case['bytes_per_receiver']:.0f} exceeds the "
                    f"{max_kb_per_receiver} KiB/receiver budget")

    if min_receivers is not None and not errors:
        best = max(c["receivers"] for c in cases if isinstance(c, dict))
        if best < min_receivers:
            bad(f"largest case has {best} receivers, "
                f"--min-receivers demands {min_receivers}")
    return errors


def main(argv):
    args = list(argv[1:])
    min_receivers = None
    max_kb_per_receiver = None
    require_complete = False
    if "--require-complete" in args:
        args.remove("--require-complete")
        require_complete = True
    if "--min-receivers" in args:
        at = args.index("--min-receivers")
        try:
            min_receivers = int(args[at + 1])
        except (IndexError, ValueError):
            print("check_bench: --min-receivers needs an integer", file=sys.stderr)
            return 2
        del args[at:at + 2]
    if "--max-kb-per-receiver" in args:
        at = args.index("--max-kb-per-receiver")
        try:
            max_kb_per_receiver = float(args[at + 1])
        except (IndexError, ValueError):
            print("check_bench: --max-kb-per-receiver needs a number",
                  file=sys.stderr)
            return 2
        del args[at:at + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_bench: {args[0]}: {exc}", file=sys.stderr)
        return 1

    errors = check(doc, min_receivers, require_complete, max_kb_per_receiver)
    for err in errors:
        print(f"check_bench: {err}", file=sys.stderr)
    if not errors:
        cases = doc["cases"]
        biggest = max(c["receivers"] for c in cases)
        print(f"check_bench: OK ({len(cases)} cases, "
              f"largest {biggest} receivers)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
