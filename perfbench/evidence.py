#!/usr/bin/env python3
"""Determinism and held-out-seed self-check for every workload.

    python3 perfbench/evidence.py [--seconds S] [--out FILE]

Run from the root of a checkout. For each workload it runs the default
seed twice and the held-out seed once (untraced), then checks:

- the first block's counters and route mix repeat exactly between the
  two default-seed runs, except counters a run itself reports under
  determinism.varying (those are listed with their spread instead);
- the held-out seed passes the same known-answer check with the same
  failed_share as the default seed.

Prints a JSON summary (and writes it to FILE with --out); exits 1 if a
check fails.
"""

import argparse
import json
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def run(workload, seed, seconds):
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    summary, ok = {}, True
    for w in (x["name"] for x in bench["workloads"]):
        (r1, s1), (r2, _), (rh, sh) = (
            run(w, DEFAULT_SEED, a.seconds), run(w, DEFAULT_SEED, a.seconds),
            run(w, HELD_OUT_SEED, a.seconds))
        d1, d2 = r1["determinism"], r2["determinism"]
        varying = {}
        for d in (d1, d2):
            for k, v in d["varying"].items():
                lo, hi = varying.get(k, v)
                varying[k] = [min(lo, v[0]), max(hi, v[1])]
        c1, c2 = d1["block_counters"], d2["block_counters"]
        differ = sorted(k for k in set(c1) | set(c2)
                        if k not in varying and c1.get(k) != c2.get(k))
        for k in set(c1) | set(c2):
            if k not in varying and c1.get(k) != c2.get(k):
                varying[k] = sorted([c1.get(k, 0), c2.get(k, 0)])
        exact = not differ and d1["routes"] == d2["routes"]
        held = (rh["known_answers"]["contradiction"] is None and sh["correct"]
                and rh["failed_share"] == r1["failed_share"])
        ok = ok and exact and held
        summary[w] = {
            "seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "counters_repeat_exactly": exact,
            "differing_between_runs": differ,
            "excluded_varying": varying,
            "exact_counters": {k: v for k, v in c1.items()
                               if k not in varying and v != 0},
            "route_mix": {r: d1["routes"].count(r)
                          for r in sorted(set(d1["routes"]))},
            "known_answers_checked": [r1["known_answers"]["checked"],
                                      rh["known_answers"]["checked"]],
            "failed_share": [r1["failed_share"], rh["failed_share"]],
            "correct": [s1["correct"], sh["correct"]],
            "held_out_passes": held,
            "host": r1["host"],
        }
    text = json.dumps(summary, indent=1, sort_keys=True)
    print(text)
    if a.out:
        with open(a.out, "w") as fh:
            fh.write(text + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
