#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/perfbench.exe with dune,
repeats the workload's set-up in separate processes, runs the timed
window, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Earlier lines carry run information
(seed, nproc, OCaml version, source revision, tail percentile and sample
count, failed ratio). The exit code is 0 only when every output check
passed. --corrupt-reference swaps in a deliberately wrong reference so
the output checks can be seen to fail.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("paper-tables", "tatsd-mix", "online-stream", "dag-sweep")
# Set-up is repeated in this many extra processes; setup_s is the median
# over them and the measured run.
SETUP_REPEATS = 8
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision():
    if os.path.isdir(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, env=env, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    # Not a git checkout: a digest of the sources that the program is built from.
    h = hashlib.md5()
    for top in ("lib", "perfbench", "dune-project"):
        for root, dirs, files in os.walk(top) if os.path.isdir(top) else [("", [], [top])]:
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(root, f)
                if p.endswith((".ml", ".mli", "dune", "dune-project")):
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-md5:" + h.hexdigest()


def ocaml_version():
    try:
        return subprocess.run(["ocamlc", "-version"], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except OSError:
        return "unknown"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    out = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                          "./perfbench/perfbench.exe"],
                         stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    if out.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_exe(args):
    """Run the benchmark executable; return its JSON line and exit code."""
    t0 = time.time()
    out = subprocess.run([EXE, "--t0", repr(t0)] + args, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (" ".join(args), out.returncode))
    return json.loads(lines[-1]), out.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    a = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("test", "goldens", "tables.golden")):
        if not os.path.exists(need):
            fail("run from the root of a repository checkout (%s is missing)" % need)
    build()

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_REPEATS):
            res, code = run_exe(common + ["--seconds", "1", "--setup-only"])
            if code != 0:
                fail("set-up failed (exit %d)" % code)
            setups.append(res["setup_s"])
    args = common + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.corrupt_reference:
        args.append("--corrupt-reference")
    res, code = run_exe(args)
    setups.append(res["setup_s"])

    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in res["metrics"].items()}
    if a.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    attempted, failed = res["attempted"], res["failed"]
    correct = code == 0 and failed == 0 and attempted > 0
    info = {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "nproc": os.cpu_count(),
        "ocaml": ocaml_version(),
        "rev": source_revision(),
        "setup_runs_s": setups,
        **res["info"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print("metric %-28s %14s %s" % (name, "%.6g" % m["value"] if m["value"] is not None
                                        else "none", m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
