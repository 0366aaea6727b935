#!/usr/bin/env python3
"""Paired A/B runs of the swagperf benchmark across two checkouts.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload ooo_bulk --seeds 1-6,11-14 --seconds 30 --out ab.jsonl
    python3 tools/ab_pairs.py --summarize ab.jsonl

Each seed is one pair: `swagperf/run.py` runs once in each checkout, the
parent first on odd seeds and the change first on even ones, so a drift of
the host over time does not favour one side. Every run's result line is
appended to --out as it finishes (JSON lines), so an interrupted series
keeps what it measured. At the end, and with --summarize, it prints for
each metric the median, quartiles and min-max of both sides, the median
change, and in how many pairs the change was better (BENCHMARK.json's
`better`). An end-to-end metric whose change median is worse than the
parent's by more than its BENCHMARK.json `bound` is flagged OUT OF BOUND.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """One run.py call; returns its final JSON result line (or None)."""
    cmd = [sys.executable, "swagperf/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    for line in reversed(out.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
    return None


def directions(checkout):
    """Each metric's `better` direction, and each end-to-end metric's `bound`."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for sec in ("end_to_end", "per_layer") for m in spec[sec]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(records, better, bounds):
    """Prints one line per (workload, trace, metric) over complete pairs."""
    groups = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), {}).setdefault(r["seed"], {})[r["side"]] = r
    for (workload, trace), by_seed in sorted(groups.items()):
        pairs = [(s, p["parent"], p["change"]) for s, p in sorted(by_seed.items()) if len(p) == 2]
        print(f"== {workload} trace {trace}: {len(pairs)} pairs, seeds {[s for s, _, _ in pairs]}")
        for side, idx in (("parent", 1), ("change", 2)):
            failed = sum(p[idx]["failed"] for p in pairs)
            bad = sum(not p[idx]["correct"] for p in pairs)
            print(f"   {side}: {failed} failed ops, {bad} incorrect runs")
        names = sorted({k for _, a, b in pairs for k in a["metrics"]} & {k for _, a, b in pairs for k in b["metrics"]})
        for name in names:
            ps = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for _, a, b in pairs if name in a["metrics"] and name in b["metrics"]]
            par, chg = [p for p, _ in ps], [c for _, c in ps]
            sign = -1 if better.get(name) == "lower" else 1
            wins = sum(sign * (c - p) > 0 for p, c in ps)
            pm, cm = statistics.median(par), statistics.median(chg)
            (pq1, pq3), (cq1, cq3) = quartiles(par), quartiles(chg)
            rel = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
            flag = ""
            if name in bounds and pm and -sign * (cm - pm) / pm > bounds[name]:
                flag = f"  OUT OF BOUND (worse by more than {100 * bounds[name]:g}%)"
            print(f"   {name:<36} parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}] ({min(par):.6g}-{max(par):.6g})"
                  f"  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}] ({min(chg):.6g}-{max(chg):.6g})"
                  f"  {rel}  change better {wins}/{len(ps)}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", help="checkout of the baseline")
    p.add_argument("--change", default=".", help="checkout of the change (default: .)")
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-6,11-14")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="JSON-lines file the runs are appended to")
    p.add_argument("--summarize", metavar="FILE", help="only summarize the runs recorded in FILE")
    args = p.parse_args()
    better, bounds = directions(args.change)
    if args.summarize:
        with open(args.summarize) as fh:
            summarize([json.loads(line) for line in fh if line.strip()], better, bounds)
        return 0
    if not (args.parent and args.workload):
        p.error("--parent and --workload are required unless --summarize is given")
    records = []
    for seed in parse_seeds(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in (sides if seed % 2 else sides[::-1]):
            res = run_once(checkout, args.workload, seed, args.seconds, args.trace)
            if res is None:
                print(f"seed {seed} {side}: no result", flush=True)
                continue
            rec = dict(res, workload=args.workload, seed=seed, side=side, trace=args.trace)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            vals = ", ".join(f"{k} {m['value']:.6g}" for k, m in rec["metrics"].items())
            print(f"seed {seed} {side}: correct {res['correct']}, {vals}", flush=True)
    summarize(records, better, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
