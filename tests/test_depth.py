"""Depth against its definition, and the certificates behind it.

`depth` reads the depth off the minimal resolution over the ambient ring
(Auslander-Buchsbaum); the oracle `ext_depth` takes the first nonzero
Ext^i(k, M), resolving k over R.  The presentations are seeded and their
sizes fixed: at most two generators, because the oracle is slow on three.
"""

import random

import pytest

from reflextor import QQ, make_ring
from reflextor.caps import Caps
from reflextor.hilbert import ambient_resolution
from reflextor.homology import INFINITE_DEPTH, depth
from reflextor.modules import module_from_rows, tensor
from reflextor.poly import Poly

from oracles import all_monomials, ext_depth


@pytest.fixture(scope="module")
def ring_qci():
    """Q[x,y,z,u]/(xy - zu, x^2 + y^2 + z^2), a complete intersection over QQ."""
    return make_ring(QQ, ["x", "y", "z", "u"], ["x*y-z*u", "x^2+y^2+z^2"])


def _form(ring, rng, degree, terms):
    sig, fld = ring.sig, ring.sig.field
    if degree < 0:
        return Poly.zero(sig)
    monos = all_monomials(sig.nvars, degree)
    acc = {}
    for _ in range(terms):
        m = rng.choice(monos)
        c = fld.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
        acc[m] = fld.add(acc.get(m, fld.zero), c)
    return Poly.from_dict(sig, acc)


def random_presentation(ring, seed, gens, cols):
    """`gens` generators in degree 0 or 1 and `cols` columns one or two
    degrees above them; each entry has up to two terms, or is zero."""
    rng = random.Random(seed)
    gen_degs = tuple(rng.choice((0, 0, 1)) for _ in range(gens))
    col_degs = [max(gen_degs) + rng.choice((1, 1, 2)) for _ in range(cols)]
    rows = [[_form(ring, rng, c - g, rng.choice((0, 1, 2))) for c in col_degs]
            for g in gen_degs]
    return module_from_rows(ring, rows, gen_degs)


# (generators, columns) and seeds per ring; the seed of a presentation is
# 1000*generators + 10*columns + seed
SIZES = {
    "ring_a": ([(g, c) for g in (1, 2) for c in range(8)], (0,)),
    "ring_c": ([(g, c) for g in (1, 2) for c in range(5)], (0,)),
    "ring_qci": ([(g, c) for g in (1, 2) for c in range(5)], (0,)),
    "ring_ci": ([(1, c) for c in range(5)], (0, 1)),
}
# the depths the seeded presentations reach, 0 through dim R where the
# ring has modules of each
DEPTHS_SEEN = {
    "ring_a": {0, 1, 2, 3},
    "ring_c": {0, 1},
    "ring_qci": {0, 1, 2},
    "ring_ci": {0, 1, 2},
}


class TestAgainstExtOracle:
    @pytest.mark.parametrize("which", sorted(SIZES))
    def test_seeded_presentations(self, which, request):
        ring = request.getfixturevalue(which)
        sizes, seeds = SIZES[which]
        seen = set()
        for gens, cols in sizes:
            for seed in seeds:
                m = random_presentation(ring, 1000 * gens + 10 * cols + seed,
                                        gens, cols)
                expected = ext_depth(m)
                assert depth(m) == expected, (gens, cols, seed)
                seen.add(expected)
        assert seen == DEPTHS_SEEN[which]

    def test_unminimized_tensors(self, ring_a, ring_qci, m_a, n_a):
        products = [tensor(m_a, n_a)]
        for ring in (ring_a, ring_qci):
            a = random_presentation(ring, 7001, 2, 2)
            b = random_presentation(ring, 8001, 1, 2)
            products.append(tensor(a, b))
        for t in products:
            assert depth(t) == ext_depth(t)

    @pytest.mark.parametrize("which", sorted(SIZES))
    def test_zero_module(self, which, request):
        ring = request.getfixturevalue(which)
        sig = ring.sig
        x = Poly.variable(sig, sig.variables[0])
        one, zero = Poly.one(sig), Poly.zero(sig)
        z = module_from_rows(ring, [[one, x], [zero, one]], (0, 1))
        assert depth(z) == ext_depth(z) == INFINITE_DEPTH


def _walk(m):
    res = ambient_resolution(m.ring, m.gen_degrees, m.columns, Caps())
    while not res.complete:
        res.extend_to(res.length_computed() + 1)
    return res


class TestAmbientCertificate:
    """The resolution over S behind a positive depth is a checked object:
    d^2 = 0, minimal, of length n - depth, and its alternating shifts are
    the numerator of the module's Hilbert series."""

    @pytest.fixture(scope="class")
    def modules(self, ring_a, ring_qci, m_a, n_a, tensor_a):
        return [m_a, n_a, tensor_a, random_presentation(ring_qci, 2000, 2, 0),
                random_presentation(ring_qci, 1011, 1, 1)]

    def test_resolution_checks(self, modules):
        for m in modules:
            d = depth(m)
            assert d > 0
            res = _walk(m)
            assert res.check_d_squared() and res.is_minimal()
            assert res.length_computed() == m.ring.sig.nvars - d

    def test_shifts_are_the_hilbert_numerator(self, modules):
        for m in modules:
            res = _walk(m)
            numer = {}
            for k in range(res.length_computed() + 1):
                for s in res.shift(k):
                    numer[s] = numer.get(s, 0) + (-1) ** k
            assert {s: c for s, c in numer.items() if c} == \
                m.hilbert_series().as_dict()

    @pytest.mark.parametrize("which", ["ring_ci", "ring_qci"])
    def test_complete_intersection_is_cohen_macaulay(self, which, request):
        ring = request.getfixturevalue(which)
        assert ring.depth() == ring.dim == 2
        assert ring.is_cohen_macaulay()

