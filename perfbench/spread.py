#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--log FILE]

Runs perfbench/run.py once per seed (untraced, for BENCHMARK.json's
run_seconds) from the root of a checkout
and prints, for each end-to-end metric, the median of the values and the
distance between their first and third quartiles as a share of that
median, next to the metric's bound in BENCHMARK.json. A spread above a
third of the bound is flagged. Each run's result line is appended to
--log when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log")
    a = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    values = {}
    for seed in seeds_of(a.seeds):
        out = subprocess.run(["python3", "perfbench/run.py", "--workload", a.workload,
                              "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.stderr.write(out.stderr)
            sys.exit("seed %d: run failed (exit %d)" % (seed, out.returncode))
        res = json.loads(last)
        if a.log:
            with open(a.log, "a") as fh:
                fh.write(json.dumps({"workload": a.workload, "seed": seed, **res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %-4d %s" % (seed, " ".join("%s=%.6g" % (k, v["value"])
                                               for k, v in res["metrics"].items())))
    for m in bench["end_to_end"]:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / abs(med) if med else float("inf")
        flag = "  <-- above a third of the bound" if share > m["bound"] / 3 else ""
        print("%-20s median %12.6g  spread %6.3f  bound %.3f%s"
              % (m["name"], med, share, m["bound"], flag))


if __name__ == "__main__":
    main()
