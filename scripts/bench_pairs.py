#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write one JSON file.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workloads W [W ...]
        --pairs 10 [--first-seed 1] --out BENCH.json

PARENT and CHANGE are checkout roots.  For each workload and each of
`--pairs` consecutive seeds, `perfbench/run.py --trace 0` runs once in each
checkout, for the `run_seconds` that CHANGE's BENCHMARK.json sets; the side
that runs first alternates from seed to seed.  Each run's last line of
stdout is parsed, because it carries `peak_rss_mb`, which the per-run files
under `perfbench/out/` do not.  The file has one row per run and, per
workload and side, the median and quartiles of each metric, with the
number of pairs the change won (lower is better; ties count for neither
side), and, per side, how many runs were incorrect and the sums of their
failed and attempted units.  It is rewritten after every pair, so an
interrupted run keeps what it finished.  The exit status is 1 when any run
was incorrect.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("unit_s", "setup_s", "peak_rss_mb")


def run_once(root, workload, seed, seconds):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {m: result["metrics"][m]["value"] for m in METRICS if m in result["metrics"]}
    row.update({k: result[k] for k in ("correct", "attempted", "failed")})
    return row


def summarize(rows, workloads):
    """Per workload: each side's median and quartiles, the change's wins, and
    each side's incorrect runs with its failed and attempted units."""
    out = {}
    for w in workloads:
        by_side = {side: {r["seed"]: r for r in rows
                          if r["workload"] == w and r["side"] == side}
                   for side in ("parent", "change")}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        entry = {"pairs": len(seeds), "outcomes": {
            side: {"incorrect": sum(1 for r in runs.values() if not r["correct"]),
                   "failed": sum(r["failed"] for r in runs.values()),
                   "attempted": sum(r["attempted"] for r in runs.values())}
            for side, runs in by_side.items()}}
        for m in METRICS:
            stats = {}
            for side, runs in by_side.items():
                values = [r[m] for r in runs.values() if m in r]
                if len(values) >= 2:
                    q1, median, q3 = statistics.quantiles(values, n=4)
                    stats[side] = {"median": median, "q1": q1, "q3": q3}
            stats["change_wins"] = sum(
                1 for s in seeds
                if m in by_side["change"][s] and m in by_side["parent"][s]
                and by_side["change"][s][m] < by_side["parent"][s][m])
            entry[m] = stats
        out[w] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout root of the parent commit")
    ap.add_argument("change", type=Path, help="checkout root of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads((roots["change"] / "BENCHMARK.json").read_text())["run_seconds"]

    rows = []
    for w in args.workloads:
        for n in range(args.pairs):
            seed = args.first_seed + n
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            for side in order:
                row = {"workload": w, "seed": seed, "side": side,
                       "ran_first": side == order[0]}
                row.update(run_once(roots[side], w, seed, seconds))
                rows.append(row)
                print(json.dumps(row), flush=True)
            report = {"run_seconds": seconds, "runs": rows,
                      "summary": summarize(rows, args.workloads)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    incorrect = [r for r in rows if not r["correct"]]
    for r in incorrect:
        print(f"error: {r['workload']} seed {r['seed']} ({r['side']}) was incorrect: "
              f"{r['failed']} of {r['attempted']} units failed", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
