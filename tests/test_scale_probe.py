"""The scale probe's two 2 x 3 rows, run in process against pinned verdicts."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_probe.py"
spec = importlib.util.spec_from_file_location("scale_probe", SCRIPT)
scale_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_probe)


@pytest.mark.parametrize("field_name", ["GF(32003)", "QQ"])
def test_two_by_three_verdicts(field_name):
    verdicts, times = scale_probe.probe_row(field_name, 2, 3)
    assert verdicts == {"reflexive": False, "depth": 1, "tor1_degrees": (2, 1, 1)}
    assert set(times) == set(verdicts)
