"""Scale battery over GF(32003), checked against theorems, not snapshots.

Every test here is marked `slow` and deselected by default; run them with
`python -m pytest -m slow`.  The instances are seeded random rings and
modules, about 10-100x the fixtures.  Their seeds and sizes are fixed
once and never retuned.

- Tate: the Poincare series of k over a complete intersection of c forms
  of degree at least 2 in n variables is (1+t)^n / (1-t^2)^c.
- Eisenbud (Trans. AMS 1980): over a hypersurface R = S/(f), a minimal
  resolution is 2-periodic from step dim R + 1 on.  There its Betti
  numbers are constant and each free module's shifts are those two steps
  earlier plus deg f.
- Shamash: if f lies in m * Ann_S(M), the Poincare series of M over
  S/(f) is that over S divided by (1 - t^2).  The cyclic instances are
  M = S/(l_1, ..., l_k), the l_i linear, whose S-series is (1+t)^k.
"""

import random
from math import comb

import pytest

from reflextor import GF, QuotientRing, RingSignature
from reflextor.caps import Caps
from reflextor.homology import FreeResolution
from reflextor.modules import module_from_rows
from reflextor.poly import Poly

from oracles import random_form, series_over_powers

pytestmark = pytest.mark.slow

PRIME = 32003


def _form(sig, rng, d, terms):
    return random_form(sig, rng, d, terms, PRIME)


def _signature(n):
    return RingSignature(GF(PRIME), tuple(f"x{i}" for i in range(n)))


def _resolve(module, length):
    caps = Caps(resolution_length=length)
    res = FreeResolution(module, caps)
    res.extend_to(length, caps)
    assert res.check_d_squared() and res.is_minimal()
    return res


def tate_check(n, degrees, length, seed):
    """Resolve k over a seeded complete intersection and match Tate's series."""
    sig = _signature(n)
    rng = random.Random(seed)
    ring = QuotientRing(sig, [_form(sig, rng, d, 6) for d in degrees])
    # a homogeneous ideal of height c generated by c forms is a complete
    # intersection
    assert ring.dim == n - len(degrees)
    res = _resolve(ring.residue_field_module(), length)
    want = series_over_powers([comb(n, i) for i in range(n + 1)], len(degrees), 2,
                              length + 1)
    assert res.betti_numbers() == want


# (variables, degrees of the complete intersection, resolution length, seed)
TATE = [
    (4, (2, 2), 6, 401),
    (4, (2, 3, 3), 5, 402),
    (5, (2, 2, 3), 4, 501),
    (6, (2, 3), 4, 601),
    (6, (2, 2, 2), 4, 602),
]


@pytest.mark.parametrize("n, degrees, length, seed", TATE,
                         ids=[f"n{t[0]}-{''.join(map(str, t[1]))}" for t in TATE])
def test_tate_series_of_the_residue_field(n, degrees, length, seed):
    tate_check(n, degrees, length, seed)


# (variables, deg f, linear forms or matrix columns, rows, seed); one row is
# the cyclic S/(l_1..l_k) with f in m*(l), two rows a 2 x k matrix of linear
# forms with f in m * (its 2 x 2 minors)
EISENBUD = [
    (5, 3, 4, 1, 11),
    (6, 2, 5, 1, 12),
    (6, 3, 3, 1, 13),
    (5, 3, 4, 2, 14),
    (6, 3, 4, 2, 16),
]


def _hypersurface_instance(n, fdeg, k, rows, seed):
    sig = _signature(n)
    rng = random.Random(seed)
    zero = Poly.zero(sig)
    if rows == 1:
        matrix = [[_form(sig, rng, 1, 3) for _ in range(k)]]
        f = sum((ell * _form(sig, rng, fdeg - 1, 3) for ell in matrix[0]), zero)
    else:
        matrix = [[_form(sig, rng, 1, 3) for _ in range(k)] for _ in range(rows)]
        minors = [matrix[0][a] * matrix[1][b] - matrix[0][b] * matrix[1][a]
                  for a in range(k) for b in range(a + 1, k)]
        f = sum((mi * _form(sig, rng, fdeg - 2, 2) for mi in rng.sample(minors, 2)),
                zero)
    ring = QuotientRing(sig, [f])
    return ring, module_from_rows(ring, matrix, (0,) * rows), f


@pytest.mark.parametrize("n, fdeg, k, rows, seed", EISENBUD,
                         ids=[f"n{e[0]}-deg{e[1]}-{e[3]}x{e[2]}" for e in EISENBUD])
def test_two_periodicity_onset(n, fdeg, k, rows, seed):
    ring, module, f = _hypersurface_instance(n, fdeg, k, rows, seed)
    assert ring.hypersurface and ring.dim == n - 1
    onset = ring.dim + 1
    length = onset + 3
    res = _resolve(module, length)
    betti = res.betti_numbers()
    # f in m * Ann(M): the resolution never ends
    assert len(betti) == length + 1 and betti[-1] > 0
    assert len(set(betti[onset:])) == 1
    for i in range(onset, length - 1):
        assert sorted(res.shift(i + 2)) == sorted(s + fdeg for s in res.shift(i)), i
    # the engine's own onset, a matrix factorization of f over GF(p)
    assert 1 <= res.periodicity_onset() <= onset
    if rows == 1:
        assert betti == series_over_powers([comb(k, i) for i in range(k + 1)], 1, 2,
                                           length + 1)
