"""Benchmark of reflextor: one workload per process, medians over units.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from the `src/` next to
this file's parent.  With `--trace 0` the last line of stdout is a JSON
object with the end-to-end metrics `setup_s`, `unit_s` and `peak_rss_mb`,
the two times rescaled to a reference host speed (see hostspeed.py);
with `--trace 1` the layers are wrapped (see tracing.py) and it holds the
per-layer metrics instead.  Every run also writes its unit-by-unit
figures to `perfbench/out/`.  See README.md for the workloads.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_READY = "setup-done"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print a marker line and exit (used to time set-up)")
    return ap.parse_args(argv)


def prepare_environment():
    """Make `import reflextor` load this checkout, with no REFLEXTOR_* defaults."""
    if not (SRC / "reflextor" / "__init__.py").is_file():
        raise SystemExit(f"error: no reflextor package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    for key in [k for k in os.environ if k.startswith("REFLEXTOR_")]:
        del os.environ[key]


def probe_setup_seconds(args):
    """Wall time from starting a fresh interpreter to the end of its set-up:
    {"scaled_s": rescaled to the reference host speed, "wall_s": as measured}."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    before = hostspeed.calibrate()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
    if code != 0 or line.strip() != PROBE_READY:
        raise SystemExit(f"error: set-up probe exited with {code}")
    loop = (before + hostspeed.calibrate()) / 2
    return {"scaled_s": hostspeed.scaled(elapsed, loop), "wall_s": elapsed}


def layer_metrics(per_unit):
    """Per-layer figures of one unit from the tracer's totals."""
    from tracing import COUNTS, KEPT, OFFERED, SPANS

    stats, steps = per_unit["stats"], per_unit["step_s"]
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (stats[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (stats[f"{name}.self_s"], "s")
    out["modules.minimal_generator_indices.kept_ratio"] = (
        stats[KEPT] / stats[OFFERED] if stats[OFFERED] else 0.0, "ratio")
    for name in COUNTS:
        out[name] = (stats[name], "count")
    for k in range(1, 4):
        out[f"homology.step_{k}_s"] = (steps[k - 1] if len(steps) >= k else 0.0, "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed)
        print(PROBE_READY, flush=True)
        return 0

    # set-up is timed in fresh child processes: one before the first unit,
    # then one after the warm-up and about every quarter of the run, so that
    # the median does not hang on one moment of a machine whose speed drifts
    setup_samples = [] if args.trace else [probe_setup_seconds(args)]
    probe_every = args.seconds / 4
    inputs = workload.setup(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    from reflextor import CapExceeded

    units, problems, failed, attempted, wrong = [], [], 0, 0, False
    deadline = None
    while attempted < 2 or time.perf_counter() < deadline:
        attempted += 1
        if tracer:
            tracer.reset()
        else:
            before = hostspeed.calibrate()
        start = time.perf_counter()
        try:
            out = workload.unit(inputs)
        except CapExceeded as exc:
            failed += 1
            problems.append(f"unit {attempted}: {exc}")
            out = None
        elapsed = time.perf_counter() - start
        record = {"unit_s": elapsed, "step_s": out.get("step_s", []) if out else []}
        if tracer:
            record["stats"] = dict(tracer.stats)
        else:
            record["loop_s"] = (before + hostspeed.calibrate()) / 2
            record["scaled_s"] = hostspeed.scaled(elapsed, record["loop_s"])
        if out is not None:
            bad = workload.check(inputs, out)
            if bad:
                failed += 1
                wrong = True
                problems += [f"unit {attempted}: {p}" for p in bad]
        if attempted == 1:  # the warm-up
            warmup = record
            next_probe = time.perf_counter()
            deadline = next_probe + args.seconds
        elif out is not None:
            units.append(record)
        if not args.trace and time.perf_counter() >= next_probe:
            probe_start = time.perf_counter()
            setup_samples.append(probe_setup_seconds(args))
            probe_took = time.perf_counter() - probe_start
            deadline += probe_took
            next_probe += probe_took + probe_every

    # a failed check is a wrong answer: it counts as failed and makes the run incorrect
    correct = bool(units) and not wrong
    if tracer and units:
        unreached = [n for n in workload.layers
                     if units[0]["stats"].get(f"{n}.calls", 0) == 0]
        if unreached:
            correct = False
            problems.append(f"layers not reached: {', '.join(unreached)}")

    unit_times = [u["unit_s"] for u in units]
    metrics = {}
    if tracer:
        per_unit = [layer_metrics(u) for u in units]
        for name, (_, unit) in per_unit[0].items():
            metrics[name] = {"value": statistics.median(p[name][0] for p in per_unit),
                             "unit": unit}
    elif units:
        metrics = {
            "setup_s": {"value": statistics.median(p["scaled_s"] for p in setup_samples),
                        "unit": "s"},
            "unit_s": {"value": statistics.median(u["scaled_s"] for u in units),
                       "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples": setup_samples, "warmup": warmup, "units": units,
              "problems": problems}
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(detail, indent=1) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    if unit_times:
        print(f"# {args.workload}: {len(unit_times)} measured units, "
              f"median wall time {statistics.median(unit_times):.4f} s "
              f"({'traced' if tracer else 'untraced'})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
