#!/usr/bin/env python3
"""Validate a self-profile (sharqfec.profile.v1 from --profile=FILE).

Usage: check_profile.py PROFILE [--baseline BASE] [--time-tol F]
       [--mem-tol F] [--min-attribution F] [--max-overhead-wall S]

Checks, in order:
  parse        the file is a single JSON object
  schema       schema is "sharqfec.profile.v1" with a "deterministic" and
               a "timing" section of the right shapes; non-finite numbers
               are rejected wherever they appear
  sanity       shards >= 1 and every by_shard array has exactly `shards`
               entries summing to its total; scope counts and counters are
               non-negative integers; every memory category carries
               non-negative live_bytes <= peak_bytes; self-time totals are
               non-negative and their sum does not exceed wall_s times the
               run's workers (timing.env.threads, at least 1: self time is
               summed over worker threads) plus 25% slack (self times are
               1-in-sample_period estimates scaled back up at export, so
               they carry sampling noise on top of clock calibration
               error); histogram counts match their bucket sums
  cross        events_dispatched > 0 (an empty profile is a wedged run,
               not a baseline); when windows > 0, barriers > 0 too
  baseline     with --baseline BASE, compare against a committed profile:
               Channel A counters and scope counts must match EXACTLY
               (they are inside the byte-identical determinism contract);
               memory categories within --mem-tol (default 0.25: census
               values are deterministic, but allocator/container growth
               may shift across library versions); wall time and
               self-time within --time-tol (default 10.0 — CI hardware
               is not the baseline's hardware)
  attribution  with --min-attribution F, the memory census's summed peak
               bytes must cover at least fraction F of rss_delta_bytes
               (the "no anonymous memory" gate; skipped when the profile
               carries no rss delta)

Exit status 0 on success; prints one line per failure otherwise.
"""

import json
import math
import sys

SCHEMA = "sharqfec.profile.v1"


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_by_shard(entry, shards, where, bad, field="by_shard",
                   total_field="total"):
    total = entry.get(total_field)
    per = entry.get(field)
    if not is_count(total) and not is_num(total):
        bad(f"{where}: {total_field} is {total!r}")
        return
    if not isinstance(per, list) or len(per) != shards:
        bad(f"{where}: {field} must be a list of exactly {shards} entries, "
            f"got {per!r}")
        return
    if not all(is_num(v) and v >= 0 for v in per):
        bad(f"{where}: {field} has a negative or non-finite entry")
        return
    if isinstance(total, int) and all(isinstance(v, int) for v in per):
        if sum(per) != total:
            bad(f"{where}: {field} sums to {sum(per)}, total says {total}")
    elif abs(sum(per) - total) > max(1e-6, 0.01 * abs(total)):
        bad(f"{where}: {field} sums to {sum(per):g}, total says {total:g}")


def profile_workers(tim):
    """Worker threads the profiled run had: timing.env.threads, at least
    1 (serial drivers write 0 or leave it out)."""
    env = tim.get("env")
    threads = env.get("threads") if isinstance(env, dict) else None
    try:
        return max(int(threads), 1)
    except (TypeError, ValueError):
        return 1


def check_hist(hist, where, bad):
    if not isinstance(hist, dict):
        bad(f"{where}: not an object")
        return
    count = hist.get("count")
    buckets = hist.get("buckets")
    if not is_count(count) or not isinstance(buckets, list):
        bad(f"{where}: needs integer count and bucket list")
        return
    seen = 0
    for b in buckets:
        if not isinstance(b, dict) or not is_num(b.get("le_s")) \
                or not is_count(b.get("n")):
            bad(f"{where}: malformed bucket {b!r}")
            return
        seen += b["n"]
    if seen != count:
        bad(f"{where}: buckets hold {seen} samples, count says {count}")


def check_profile(doc):
    errors = []

    def bad(msg):
        errors.append(msg)

    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], None, None
    if doc.get("schema") != SCHEMA:
        bad(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    det = doc.get("deterministic")
    tim = doc.get("timing")
    if not isinstance(det, dict):
        return errors + ["deterministic section missing"], None, None
    if not isinstance(tim, dict):
        return errors + ["timing section missing"], det, None

    shards = det.get("shards")
    if not isinstance(shards, int) or shards < 1:
        bad(f"deterministic.shards is {shards!r}, expected an integer >= 1")
        shards = 1
    for section in ("scopes", "counters"):
        table = det.get(section)
        if not isinstance(table, dict) or not table:
            bad(f"deterministic.{section} missing or empty")
            continue
        for name, entry in table.items():
            if not isinstance(entry, dict):
                bad(f"deterministic.{section}.{name}: not an object")
                continue
            if not is_count(entry.get("total")):
                bad(f"deterministic.{section}.{name}: total is "
                    f"{entry.get('total')!r}, expected a non-negative int")
                continue
            check_by_shard(entry, shards, f"deterministic.{section}.{name}",
                           bad)
    mem = det.get("memory")
    if not isinstance(mem, dict):
        bad("deterministic.memory missing")
    else:
        for cat, entry in mem.items():
            where = f"deterministic.memory.{cat}"
            if not isinstance(entry, dict) \
                    or not is_count(entry.get("live_bytes")) \
                    or not is_count(entry.get("peak_bytes")):
                bad(f"{where}: needs non-negative integer live_bytes and "
                    f"peak_bytes")
                continue
            if entry["live_bytes"] > entry["peak_bytes"]:
                bad(f"{where}: live_bytes {entry['live_bytes']} > "
                    f"peak_bytes {entry['peak_bytes']}")

    wall = tim.get("wall_s")
    if not is_num(wall) or wall < 0:
        bad(f"timing.wall_s is {wall!r}")
        wall = None
    period = tim.get("sample_period")
    if period is not None and (not is_count(period) or period < 1):
        bad(f"timing.sample_period is {period!r}, expected a positive int")
    if not is_count(tim.get("rss_delta_bytes")):
        bad(f"timing.rss_delta_bytes is {tim.get('rss_delta_bytes')!r}")
    self_time = tim.get("self_time")
    if not isinstance(self_time, dict) or not self_time:
        bad("timing.self_time missing or empty")
    else:
        total_self = 0.0
        for name, entry in self_time.items():
            where = f"timing.self_time.{name}"
            if not isinstance(entry, dict) or not is_num(entry.get("total_s")) \
                    or entry["total_s"] < 0:
                bad(f"{where}: total_s is not a non-negative number")
                continue
            check_by_shard(entry, shards, where, bad, field="by_shard_s",
                           total_field="total_s")
            total_self += entry["total_s"]
        # Self time partitions each worker's wall time, but the exported
        # figures are sampled (1 in sample_period gated units is clocked,
        # scaled back up at export): allow 25% slack for sampling noise on
        # top of TSC-to-ns calibration error.
        workers = profile_workers(tim)
        if wall is not None and total_self > wall * workers * 1.25 + 0.01:
            bad(f"timing.self_time sums to {total_self:.3f}s, more than "
                f"wall_s {wall:.3f}s x {workers} worker(s)")
    hists = tim.get("histograms")
    if not isinstance(hists, dict):
        bad("timing.histograms missing")
    else:
        for name in ("barrier_wait", "window_span", "stall_window"):
            if name not in hists:
                bad(f"timing.histograms.{name} missing")
            else:
                check_hist(hists[name], f"timing.histograms.{name}", bad)

    # Cross-field sanity on Channel A.
    counters = det.get("counters")
    if isinstance(counters, dict):
        def total(name):
            entry = counters.get(name)
            return entry.get("total") if isinstance(entry, dict) else None
        ev = total("events_dispatched")
        if is_count(ev) and ev == 0:
            bad("counters.events_dispatched is 0 — an empty profile is a "
                "wedged run, not a baseline")
        windows = total("windows")
        barriers = total("barriers")
        if is_count(windows) and is_count(barriers) \
                and windows > 0 and barriers == 0:
            bad(f"counters: {windows} windows ran but 0 barriers — the "
                f"shard runtime always joins each window")
    return errors, det, tim


def rel_close(base, new, tol, floor):
    mag = max(abs(base), abs(new), floor)
    return abs(new - base) <= tol * mag


def compare_baseline(det, tim, bdet, btim, time_tol, mem_tol, bad):
    # Channel A: exact. These values are inside the byte-identical
    # determinism contract — any drift is a real behaviour change.
    for section in ("scopes", "counters"):
        base_t = bdet.get(section, {})
        new_t = det.get(section, {})
        for name in sorted(set(base_t) | set(new_t)):
            b = base_t.get(name, {}).get("total")
            n = new_t.get(name, {}).get("total")
            if b != n:
                bad(f"baseline: deterministic.{section}.{name} changed "
                    f"{b!r} -> {n!r} (Channel A must match exactly)")
    base_m = bdet.get("memory", {})
    new_m = det.get("memory", {})
    for cat in sorted(set(base_m) | set(new_m)):
        b = base_m.get(cat, {}).get("peak_bytes", 0)
        n = new_m.get(cat, {}).get("peak_bytes", 0)
        if not rel_close(b, n, mem_tol, 4096):
            bad(f"baseline: memory.{cat} peak_bytes {b} -> {n} moved more "
                f"than {mem_tol:.0%}")
    # Channel B: generous — different hardware, shared CI runners. A
    # ratio test, not rel_close: with a tolerance this large a relative
    # delta against max(old, new) could never fail on increases.
    b = btim.get("wall_s", 0)
    n = tim.get("wall_s", 0)
    if is_num(b) and is_num(n):
        lo, hi = sorted((max(b, 0.1), max(n, 0.1)))
        if hi / lo > time_tol:
            bad(f"baseline: wall_s {b:g} -> {n:g} moved more than "
                f"{time_tol:g}x")


def main(argv):
    args = list(argv[1:])
    baseline = None
    time_tol = 10.0
    mem_tol = 0.25
    min_attr = None
    max_wall = None

    def take(flag, cast):
        if flag not in args:
            return None
        at = args.index(flag)
        try:
            val = cast(args[at + 1])
        except (IndexError, ValueError):
            print(f"check_profile: {flag} needs a value", file=sys.stderr)
            sys.exit(2)
        del args[at:at + 2]
        return val

    baseline = take("--baseline", str)
    time_tol = take("--time-tol", float) or time_tol
    mem_tol = take("--mem-tol", float) or mem_tol
    min_attr = take("--min-attribution", float)
    max_wall = take("--max-overhead-wall", float)
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    def load(path):
        try:
            with open(path, encoding="utf-8") as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"check_profile: {path}: {exc}", file=sys.stderr)
            sys.exit(1)

    doc = load(args[0])
    errors, det, tim = check_profile(doc)

    def bad(msg):
        errors.append(msg)

    if baseline is not None and det is not None and tim is not None:
        bdoc = load(baseline)
        berrors, bdet, btim = check_profile(bdoc)
        for err in berrors:
            bad(f"baseline file: {err}")
        if bdet is not None and btim is not None:
            compare_baseline(det, tim, bdet, btim, time_tol, mem_tol, bad)

    if min_attr is not None and det is not None and tim is not None:
        rss = tim.get("rss_delta_bytes")
        mem = det.get("memory")
        if is_count(rss) and rss > 0 and isinstance(mem, dict):
            covered = sum(e.get("peak_bytes", 0) for e in mem.values()
                          if isinstance(e, dict))
            if covered < min_attr * rss:
                bad(f"memory census attributes {covered} of {rss} resident "
                    f"bytes ({covered / rss:.1%}), --min-attribution "
                    f"demands {min_attr:.0%}")

    if max_wall is not None and tim is not None:
        wall = tim.get("wall_s")
        if is_num(wall) and wall > max_wall:
            bad(f"wall_s {wall:g} exceeds --max-overhead-wall {max_wall:g}")

    for err in errors:
        print(f"check_profile: {err}", file=sys.stderr)
    if not errors and det is not None and tim is not None:
        ev = det.get("counters", {}).get("events_dispatched", {}).get(
            "total", 0)
        print(f"check_profile: OK (shards {det.get('shards')}, "
              f"{ev} events, wall {tim.get('wall_s', 0):.2f}s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
