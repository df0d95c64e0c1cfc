"""Tiny cases, answers known by hand, for the benchmark's answer checks.

    python3 -m pytest perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_tate_series():
    # (1+t)^2/(1-t^2) = (1+t)/(1-t) = 1 + 2t + 2t^2 + ...
    assert checks.tate_betti(2, 1, 5) == [1, 2, 2, 2, 2]
    assert checks.tate_betti(1, 0, 3) == [1, 1, 0]
    assert checks.tate_betti(5, 3, 5) == [1, 5, 13, 25, 41]


def test_complete_intersection_hilbert():
    assert checks.laurent_from_factors([1, 2]) == {0: 1, 1: -1, 2: -1, 3: 1}
    # k[x,y]/(quadric): 1, 2, 2, 2, ...
    assert checks.complete_intersection_hilbert([2], 2, 5) == [1, 2, 2, 2, 2]
    # k[x,y]/(x,y) = k
    assert checks.complete_intersection_hilbert([1, 1], 2, 3) == [1, 0, 0]
    assert checks.complete_intersection_hilbert(range(1, 6), 6, 13) == [
        1, 5, 14, 29, 49, 71, 91, 106, 115, 119, 120, 120, 120]


def test_buchsbaum_rim_numerator():
    # 1x2: the Koszul complex on two linear forms, (1-t)^2
    assert checks.buchsbaum_rim_numerator(1, 2) == {0: 1, 1: -2, 2: 1}
    # square matrix: 0 -> R^2(-1) -> R^2
    assert checks.buchsbaum_rim_numerator(2, 2) == {0: 2, 1: -2}
    assert checks.buchsbaum_rim_numerator(3, 5) == {0: 3, 1: -5, 4: 5, 5: -3}


def test_standard_monomials():
    assert checks.standard_monomial_counts([(2, 0), (0, 2)], 2, 5) == [1, 2, 1, 0, 0]
    assert checks.standard_monomial_counts([(1, 0)], 2, 4) == [1, 1, 1, 1]
    assert checks.standard_monomial_counts([(0, 0)], 2, 3) == [0, 0, 0]


def test_grevlex():
    # y^2 > x*z > z^2 in grevlex with x > y > z
    ms = [(0, 0, 2), (1, 0, 1), (0, 2, 0)]
    assert sorted(ms, key=checks.grevlex_key) == ms
    assert checks.lead_monomial({(1, 0): 1, (0, 1): -1}) == (1, 0)


def test_division_and_reducedness():
    x_minus_y = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert checks.reduce_fully({(2, 0): 1, (0, 2): -1}, [x_minus_y]) == {}
    assert checks.reduce_fully({(2, 0): 1}, [x_minus_y]) == {(0, 2): 1}
    assert checks.reduced_basis_problems([x_minus_y, {(0, 2): 1}]) == []
    assert checks.reduced_basis_problems([x_minus_y, {(1, 1): 1}])
    assert checks.reduced_basis_problems([{(1, 0): 2}])


def test_modular_arithmetic():
    assert checks.det_mod([[1, 2], [3, 4]], 7) == 5
    assert checks.det_mod([[0, 1], [1, 0]], 7) == 6
    assert checks.det_mod([[1, 2], [2, 4]], 7) == 0
    assert checks.evaluate({(1, 0): 2, (0, 2): 1}, (3, 4), 7) == 1


def test_checks_reject_wrong_answers():
    cyc5 = workloads.GroebnerCyc5()
    inputs = {"plain": [{(1, 0, 0, 0, 0, 0): 1}]}
    assert cyc5.check(inputs, {"basis": []})

    inv = workloads.InvariantsLinear()
    coeffs = [[[1, 0, 0, 0]] * 7 for _ in range(5)]
    inputs = {"fitting": (coeffs, None), "points": [[1, 2, 3, 4]]}
    out = {"series": (4, {0: 3, 1: -5}), "fitting": [[], []]}
    assert len(inv.check(inputs, out)) == 3
