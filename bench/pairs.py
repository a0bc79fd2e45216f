#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload by alternating pairs.

    python3 bench/pairs.py --base DIR --change DIR --workload NAME \\
        [--seed N] [--pairs 10] [--seconds 10] [--claim METRIC]

Runs `python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0` in each checkout, PAIRS times each, alternating which side
runs first. For every end-to-end metric in the change's BENCHMARK.json it
prints each side's median and quartiles, the parent's interquartile
range, and the pairs the change won and lost (ties count for neither).
With --claim METRIC it also says whether a gain in METRIC holds: the
change wins at least nine tenths of the pairs, the medians differ, in
the better direction, by more than the base's interquartile range, no
more operations fail than at the base, and every change run is correct.
If the gain does not hold, it says why.

Each run's last stdout line is perfbench's JSON summary; a run that
exits non-zero, reports "correct": false or fails operations is printed
and counted. Build output goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, args):
    cmd = [
        sys.executable,
        os.path.join(checkout, "perfbench", "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s: perfbench exited %d" % (checkout, out.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="the parent checkout")
    p.add_argument("--change", required=True, help="the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--claim", help="the metric a gain is claimed in")
    args = p.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if args.claim and args.claim not in [m["name"] for m in metrics]:
        sys.exit("unknown metric %s" % args.claim)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            r = run_once(getattr(args, side), args)
            runs[side].append(r)
            bad = "" if r.get("correct") and r.get("failed") == 0 else "  NOT CORRECT"
            print("pair %d %-6s %s=%.4g failed=%s/%s%s" % (
                i + 1, side, args.claim or "tx_s",
                r["metrics"][args.claim or "tx_s"]["value"],
                r.get("failed"), r.get("attempted"), bad), flush=True)

    print("\n%s, seed %d, %d pairs (median [q1, q3]; won/lost by the change)" % (
        args.workload, args.seed, args.pairs))
    reasons = []
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        won = sum(1 for b, c in zip(base, change) if (c > b if higher else c < b))
        lost = sum(1 for b, c in zip(base, change) if (c < b if higher else c > b))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        iqr = bq3 - bq1
        print("  %-24s base %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f]  "
              "base IQR %.4f  won %d lost %d %s" % (
                  name, bmed, bq1, bq3, cmed, cq1, cq3, iqr, won, lost, m["unit"]))
        if name == args.claim:
            gain = (cmed - bmed) if higher else (bmed - cmed)
            reasons = []
            if won * 10 < 9 * args.pairs:
                reasons.append("won %d of %d pairs" % (won, args.pairs))
            if gain <= iqr:
                reasons.append("median gain %.4f within the base IQR %.4f" % (gain, iqr))
    fails = [sum(r.get("failed", 0) for r in runs[s]) for s in ("base", "change")]
    print("  failed operations: base %d, change %d" % tuple(fails))
    if args.claim:
        if fails[1] > fails[0]:
            reasons.append("more operations failed than at the base")
        wrong = sum(1 for r in runs["change"] if not r.get("correct"))
        if wrong:
            reasons.append("%d change runs not correct" % wrong)
        if reasons:
            print("gain in %s: does not hold (%s)" % (args.claim, "; ".join(reasons)))
        else:
            print("gain in %s: holds" % args.claim)


if __name__ == "__main__":
    main()
