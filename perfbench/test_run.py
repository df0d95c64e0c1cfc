"""End-to-end checks of the benchmark command itself (about half a minute).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_wrapped_function_is_assigned_to_a_workload():
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    assigned = {name for w in workloads.WORKLOADS.values() for name in w.layers}
    assert set(tracing.SPANS) | {tracing.TICK[3]} == assigned


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reaches_its_layers(workload):
    # run.py marks the run incorrect when a layer assigned to the workload
    # records no call
    done = run(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_reports_end_to_end_metrics():
    sys.path.insert(0, str(HERE))
    import hostspeed

    done = run("groebner-cyc5", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads((HERE / "out" / "groebner-cyc5.seed3.trace0.json").read_text())
    unit = detail["units"][0]
    assert unit["scaled_s"] == pytest.approx(
        unit["unit_s"] * hostspeed.REFERENCE_S / unit["loop_s"])
    assert result["metrics"]["unit_s"]["value"] == unit["scaled_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("resolve-ci", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_host_speed_rescaling():
    sys.path.insert(0, str(HERE))
    import hostspeed

    assert hostspeed.scaled(1.5, hostspeed.REFERENCE_S) == pytest.approx(1.5)
    assert hostspeed.scaled(1.5, 2 * hostspeed.REFERENCE_S) == pytest.approx(0.75)
    assert hostspeed.calibrate() > 0
