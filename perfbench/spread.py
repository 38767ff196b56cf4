#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3,4,5] [--seconds S]
                                [--out FILE]

Run from the root of a checkout. Prints one line per metric with the
median, the spread and the bound from BENCHMARK.json; --out appends
every run's result object to FILE as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for seed in a.seeds.split(","):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", seed,
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %s failed:\n%s" % (seed, out.stderr[-2000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if a.out:
            with open(a.out, "a") as fh:
                fh.write(json.dumps({"workload": a.workload, "seed": int(seed),
                                     "result": res}) + "\n")
        assert res["correct"] and res["failed"] == 0, res
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print("%-18s median %-12.6g spread %.4f bound %.2f %s"
              % (m["name"], q2, spread, m["bound"], flag))


if __name__ == "__main__":
    main()
