#!/usr/bin/env python3
"""Self-test of the stream benchmark. Run from the repository root:

    python3 perfbench/test_bench.py

1. Contract: a short fig10_stream run prints exactly BENCHMARK.json's
   end-to-end metrics with --trace 0 and its per-layer metrics with
   --trace 1, each with the declared unit, and reports correct.
2. Shard identity: deep_sharded's inputs at 1 and at 4 workers give
   identical deterministic metrics (event, packet and protocol counts and
   the completion percentiles); only host times and memory may differ.

Takes about two minutes (four deep runs). Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import run  # noqa: E402  (perfbench/run.py: the build step)

# Metrics that are a pure function of (inputs, seed), for any worker count.
DETERMINISTIC = [
    "completion_p50_ms", "completion_p99_ms", "rx_pkts_per_receiver",
    "nack_rx_per_receiver", "rx_bytes_per_receiver",
    "fec.decode_calls", "sim.events", "sim.queue_high_water",
    "sim.shard_imbalance", "sim.xshard_msgs", "sim.lookahead_stalls",
    "net.tx", "net.drops.loss", "net.drops.queue_full",
    "sharqfec.dup_rejects", "sharqfec.nacks_sent", "sharqfec.repairs_sent",
    "sharqfec.preemptive_repairs", "sharqfec.session_msgs_sent",
    "sharqfec.repairs_per_group",
] + ["net.deliveries." + c
     for c in ("data", "repair", "nack", "session", "control")]


def bench(binary, *args):
    out = subprocess.run([binary, "--seconds", "1", *args], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("FAIL %s: run not correct:\n%s" % (" ".join(args), out))
    return result["metrics"]


def check_contract(binary):
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = bench(binary, "--workload", "fig10_stream", "--seed", "7",
                    "--trace", str(trace))
        want = {m["name"]: m["unit"] for m in spec[key]}
        have = {name: m["unit"] for name, m in got.items()}
        if have != want:
            sys.exit("FAIL --trace %d metrics differ from BENCHMARK.json %s:\n"
                     "  missing %s\n  extra %s\n  unit mismatch %s" % (
                         trace, key, sorted(set(want) - set(have)),
                         sorted(set(have) - set(want)),
                         sorted(k for k in set(want) & set(have)
                                if want[k] != have[k])))
    print("ok   metric names and units match BENCHMARK.json")


def check_shard_identity(binary):
    runs = {}
    for workers in (1, 4):
        runs[workers] = bench(binary, "--workload", "deep_sharded", "--seed",
                              "5", "--trace", "1", "--all-metrics",
                              "--workers", str(workers))
    diff = [(k, runs[1][k]["value"], runs[4][k]["value"])
            for k in DETERMINISTIC if runs[1][k] != runs[4][k]]
    if diff:
        sys.exit("FAIL deep_sharded differs between 1 and 4 workers:\n" +
                 "\n".join("  %s: %r vs %r" % d for d in diff))
    print("ok   deep_sharded: %d deterministic metrics identical at 1 and 4 "
          "workers (%d events)" % (len(DETERMINISTIC),
                                   runs[1]["sim.events"]["value"]))


def main():
    binary = run.build()
    check_contract(binary)
    check_shard_identity(binary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
