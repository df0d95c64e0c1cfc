"""The scale probe's two 2 x 3 rows and its GF(32003) 3 x 4 row, run in
process against pinned verdicts."""

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


def test_gf_three_by_four_verdicts():
    # the Nakayama scan's measured GF(32003) target, about 1 s; the QQ
    # 3 x 4 row (about 10 s) stays with the script
    verdicts, _ = scale_probe.probe_row("GF(32003)", 3, 4)
    assert verdicts == {"reflexive": False, "depth": 1, "tor1_degrees": (2,) * 11}
