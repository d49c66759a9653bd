#!/usr/bin/env python3
"""Compare the last two revisions of the committed perf trajectory.

    python3 bench/trajectory.py [--check] [--pairs METRIC WORKLOAD]
                                [--file PATH] [--benchmark PATH]

bench/trajectory.jsonl is append-only: one perfbench run per line, in the
order the runs were made,

    {"workload": W, "seed": N, "trace": 0|1, "rev": R, "nproc": P,
     "result": <the last line perfbench/run.py printed>}

where R is the source revision perfbench reported (a git commit, or the
"src-md5:" digest of the sources when the run was made outside a git
checkout).

Without --check, prints for every workload run untraced at both of the
last two revisions in the file (in order of first appearance) the median
of each end-to-end metric of BENCHMARK.json at each revision and its
relative move, and exits 1 when a move is worse than the metric's bound.
With --pairs METRIC WORKLOAD, tests a claimed gain in one end-to-end
metric instead: it pairs the untraced WORKLOAD runs of the last two
revisions by seed, prints each pair, counts the pairs that moved in the
metric's better direction, and prints the older revision's quartiles.
It exits 0 only when at least 9 in 10 pairs moved the better way and the
newer median is better than the older one by more than the older runs'
interquartile range (so it lies outside that range too).
With --check, only validates the file: every line parses, has every
field, names a workload of BENCHMARK.json and only the metrics it
declares for that mode (end-to-end on untraced runs, per-layer on traced
ones); exits 1 otherwise. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("workload", "seed", "trace", "rev", "nproc", "result")


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    return workloads, end_to_end, per_layer


def run_errors(run, workloads, end_to_end, per_layer):
    if not isinstance(run, dict):
        return ["not a JSON object"]
    missing = [k for k in FIELDS if k not in run]
    if missing:
        return ["missing " + ", ".join(missing)]
    errors = []
    if run["workload"] not in workloads:
        errors.append("unknown workload %r" % run["workload"])
    if run["trace"] not in (0, 1):
        errors.append("trace must be 0 or 1, not %r" % run["trace"])
    metrics = run["result"].get("metrics") if isinstance(run["result"], dict) else None
    if not isinstance(metrics, dict):
        return errors + ["result has no metrics object"]
    known = end_to_end if run["trace"] == 0 else per_layer
    for name, m in sorted(metrics.items()):
        if name not in known:
            errors.append("unknown %s metric %r" % ("per-layer" if run["trace"] else "end-to-end", name))
        elif not isinstance(m, dict) or not isinstance(m.get("value"), (int, float, type(None))):
            errors.append("metric %r has no numeric value" % name)
    return errors


def load_runs(path, workloads, end_to_end, per_layer):
    runs, errors = [], []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            try:
                run = json.loads(line)
            except ValueError as e:
                errors.append("%s:%d: not JSON (%s)" % (path, n, e))
                continue
            bad = run_errors(run, workloads, end_to_end, per_layer)
            errors.extend("%s:%d: %s" % (path, n, e) for e in bad)
            if not bad:
                runs.append(run)
    return runs, errors


def medians(runs, rev, workload):
    values = {}
    for r in runs:
        if r["rev"] == rev and r["workload"] == workload and r["trace"] == 0:
            for name, m in r["result"]["metrics"].items():
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
    return {name: (statistics.median(v), len(v)) for name, v in values.items()}


def compare(runs, end_to_end):
    revs = last_two_revisions(runs)
    if len(revs) < 2:
        print("trajectory: fewer than two revisions with untraced runs; nothing to compare")
        return 0
    old, new = revs
    print("old %s\nnew %s" % (old, new))
    worse = 0
    for workload in sorted({r["workload"] for r in runs}):
        before, after = medians(runs, old, workload), medians(runs, new, workload)
        for name, spec in end_to_end.items():
            if name not in before or name not in after:
                continue
            (a, na), (b, nb) = before[name], after[name]
            move = (b - a) / abs(a) if a else 0.0
            loss = move if spec["better"] == "lower" else -move
            flag = ""
            if loss > spec["bound"]:
                flag = "  WORSE than the %g bound" % spec["bound"]
                worse += 1
            print("%-14s %-20s %12.6g (n=%d) -> %12.6g (n=%d) %+7.1f%%%s"
                  % (workload, name, a, na, b, nb, 100.0 * move, flag))
    return 1 if worse else 0


def last_two_revisions(runs):
    revs = []
    for r in runs:
        if r["trace"] == 0 and r["rev"] not in revs:
            revs.append(r["rev"])
    return revs[-2:]


def pairs(runs, end_to_end, metric, workload):
    if metric not in end_to_end:
        print("trajectory: %r is not an end-to-end metric" % metric, file=sys.stderr)
        return 2
    revs = last_two_revisions(runs)
    if len(revs) < 2:
        print("trajectory: fewer than two revisions with untraced runs; nothing to pair")
        return 1
    old, new = revs
    by_seed = {old: {}, new: {}}
    for r in runs:
        m = r["result"]["metrics"].get(metric)
        if (r["trace"] == 0 and r["workload"] == workload and r["rev"] in by_seed
                and m is not None and m["value"] is not None):
            by_seed[r["rev"]].setdefault(r["seed"], []).append(m["value"])
    seeds = sorted(set(by_seed[old]) & set(by_seed[new]))
    if len(seeds) < 2:
        print("trajectory: fewer than two %s seeds run at both revisions" % workload)
        return 1
    sign = 1.0 if end_to_end[metric]["better"] == "higher" else -1.0
    print("old %s\nnew %s\n%s on %s, better %s"
          % (old, new, metric, workload, end_to_end[metric]["better"]))
    better = 0
    for seed in seeds:
        a = statistics.median(by_seed[old][seed])
        b = statistics.median(by_seed[new][seed])
        won = sign * (b - a) > 0
        better += won
        print("seed %-6d %12.6g -> %12.6g %+7.1f%%%s"
              % (seed, a, b, 100.0 * (b - a) / abs(a) if a else 0.0, "  better" if won else ""))
    olds = [v for s in seeds for v in by_seed[old][s]]
    news = [v for s in seeds for v in by_seed[new][s]]
    q1, _, q3 = statistics.quantiles(olds, n=4)
    old_med, new_med = statistics.median(olds), statistics.median(news)
    gain = sign * (new_med - old_med)
    enough = 10 * better >= 9 * len(seeds)
    past = gain > q3 - q1
    print("%d of %d pairs better (%s 9 in 10)" % (better, len(seeds), "at least" if enough else "below"))
    print("old quartiles %.6g .. %.6g (IQR %.6g), median %.6g; new median %.6g"
          % (q1, q3, q3 - q1, old_med, new_med))
    print("median gain %.6g is %s the old IQR" % (gain, "past" if past else "within"))
    return 0 if enough and past else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true", help="only validate the file")
    ap.add_argument("--pairs", nargs=2, metavar=("METRIC", "WORKLOAD"),
                    help="test a claimed gain in METRIC on WORKLOAD, pair by pair")
    ap.add_argument("--file", default=os.path.join(HERE, "trajectory.jsonl"))
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    a = ap.parse_args()
    workloads, end_to_end, per_layer = load_benchmark(a.benchmark)
    runs, errors = load_runs(a.file, workloads, end_to_end, per_layer)
    for e in errors:
        print("trajectory: " + e, file=sys.stderr)
    if errors:
        return 1
    if a.check:
        print("trajectory: %d runs, %d revisions" % (len(runs), len({r["rev"] for r in runs})))
        return 0
    if a.pairs:
        return pairs(runs, end_to_end, *a.pairs)
    return compare(runs, end_to_end)


if __name__ == "__main__":
    sys.exit(main())
