"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workloads resolve-ci ...]

For each workload and metric it prints the median of the runs, the
quartiles from `statistics.quantiles(values, n=4)` and the distance
between them as a share of the median, next to the metric's bound.
Untraced, it also shows the median wall time of a unit before rescaling
to the reference host speed (from each run's `out/` file), to compare.
Runs are sequential: parallel runs would slow each other down.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for workload in args.workloads:
        values, failed = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stderr}")
            failed.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if not args.trace:
                out = json.loads((HERE / "out" / f"{workload}.seed{seed}.trace0.json")
                                 .read_text())
                values.setdefault("(unit wall time, not rescaled)", []).append(
                    statistics.median(u["unit_s"] for u in out["units"]))
        print(f"{workload}: {args.runs} runs, failed share {sorted(failed)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"  {name:48s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:6.1%}" + (f"  bound {bound:.0%}" if bound else ""))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
