#!/usr/bin/env python3
"""Check the benchmark's steadiness across seeds.

Run from the repository root:

    python3 perfbench/prove.py --workloads fleet-store --seeds 1-5
    python3 perfbench/prove.py --seeds 1-10 --save /tmp/set1.json

For each workload it runs perfbench/run.py once per seed (untraced, for
BENCHMARK.json's run_seconds unless --seconds says otherwise) and prints,
per end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median next to a third of the metric's
bound, the steadiness target. --save writes the figures and each run's
digest as JSON; --compare checks the medians against a saved set within
each metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest, took


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--save", help="write the figures and digests to this JSON file")
    ap.add_argument("--compare", help="check medians against a file written by --save")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    saved = {"nproc": os.cpu_count(), "platform": platform.platform(), "workloads": {}}
    before = json.load(open(args.compare))["workloads"] if args.compare else None
    worst = 0.0
    for wl in args.workloads.split(","):
        values, digests = {}, {}
        for seed in args.seeds:
            res, digest, took = run_once(wl, seed, args.seconds, 0)
            digests[str(seed)] = digest
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        stats = {}
        for name in sorted(values):
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
            target = bounds[name] / 3
            flag = "ok" if name == "setup_s" or spread <= target else "TOO WIDE"
            line = f"  {wl:15s} {name:14s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:6.3f} (target {target:.3f}) {flag}"
            if before:
                old = before[wl][name]["median"]
                drift = med / old - 1
                line += f"  vs saved {drift:+.3f} (bound {bounds[name]})"
                worst = max(worst, drift / bounds[name])
            print(line, flush=True)
        saved["workloads"][wl] = stats
        saved.setdefault("digests", {})[wl] = digests
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1, sort_keys=True)
    if before:
        print(f"worst median drift as a share of its bound: {worst:.2f}")
        return 1 if worst > 1 else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
