"""The graded-Nakayama scan: one degree-truncated pair queue on a copy of D.

`minimal_generator_indices` is checked against degree-piece dimensions
from `oracles.submodule_piece_dimension`, which shares no code with the
basis engine; the other tests check that a scan which stops with pairs
pending above its top degree leaves the caller's relation span as it was
and still honors the cancel callback.
"""

import random
from copy import copy

import pytest

from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps, ComputationCancelled
from reflextor.groebner import FreeVector
from reflextor.hilbert import minimal_vector_subset, vector_degree
from reflextor.modules import minimal_generator_indices, ring_membership_span
from reflextor.poly import Poly

from oracles import all_monomials, submodule_piece_dimension

COORD_DEGREES = (0, 1, 2)


def _setting(fld, seed, with_modulo):
    """A ring with a nonzero ideal, D's vectors, and vectors to offer: random
    homogeneous ones and combinations of them that the scan must drop."""
    ring = make_ring(fld, ["x", "y", "z"], ["x*y - z^2"])
    sig = ring.sig
    rng = random.Random(seed)

    def form(d):
        monos = all_monomials(sig.nvars, d)
        picks = rng.sample(monos, min(2, len(monos)))
        return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 7)) for m in picks})

    def vector(d):
        return FreeVector(sig, tuple(form(d - cd) for cd in COORD_DEGREES))

    modulo = [vector(1)] if with_modulo else []
    vectors = [vector(d) for d in (1, 2, 2, 3, 3)]
    x, y = (Poly.variable(sig, n) for n in ("x", "y"))
    vectors.append(vectors[0].poly_mul(x) + vectors[1])
    vectors.append(vectors[2].poly_mul(x + y) - vectors[4])
    if modulo:
        vectors.append(modulo[0].poly_mul(y) + vectors[2])
    return ring, modulo, vectors


def _oracle_kept(ring, modulo, vectors, degrees):
    """Offered in the scan's order, vector i is kept exactly when it grows
    the degree-delta piece of D + ideal*F + the vectors kept before it."""
    sig, rank = ring.sig, len(COORD_DEGREES)
    base = list(modulo) + [
        FreeVector.unit(sig, rank, i).poly_mul(g)
        for g in ring.ideal.generators for i in range(rank)
    ]

    def scan_key(i):
        terms = [(pos, p.terms) for pos, p in enumerate(vectors[i].coords) if p.terms]
        return degrees[i], sum(len(t) for _, t in terms), terms

    kept = []
    for i in sorted(range(len(vectors)), key=scan_key):
        known = base + [vectors[k] for k in kept]
        d = degrees[i]
        if (submodule_piece_dimension(known + [vectors[i]], COORD_DEGREES, d)
                > submodule_piece_dimension(known, COORD_DEGREES, d)):
            kept.append(i)
    return sorted(kept)


@pytest.mark.parametrize("with_modulo", [False, True], ids=["D=0", "D"])
@pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("seed", [1, 2])
def test_kept_exactly_when_the_piece_grows(fld, seed, with_modulo):
    ring, modulo, vectors = _setting(fld, 20261019 + seed, with_modulo)
    rank = len(COORD_DEGREES)
    degrees = [vector_degree(v, COORD_DEGREES) for v in vectors]
    span = ring_membership_span(ring, rank, modulo) if modulo else None
    kept = minimal_generator_indices(ring, rank, vectors, degrees, modulo=span)
    expected = _oracle_kept(ring, modulo, vectors, degrees)
    assert kept == expected
    assert 0 < len(kept) < len(vectors)


class TestKeptHeap:
    """A scan that stops with pairs pending above its top degree."""

    @staticmethod
    def _scan_input(fld):
        ring, modulo, vectors = _setting(fld, 20261020, True)
        degrees = [vector_degree(v, COORD_DEGREES) for v in vectors]
        return ring, modulo, vectors, degrees

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_relation_span_is_left_as_it_was(self, fld):
        ring, modulo, vectors, degrees = self._scan_input(fld)
        rank = len(COORD_DEGREES)
        d_span = ring_membership_span(ring, rank, modulo)
        entries = d_span._entries
        snapshot = list(entries)
        probes = vectors + [v.poly_mul(Poly.variable(ring.sig, "z")) for v in vectors]
        answers = [d_span.contains(p) for p in probes]

        scanned = copy(d_span)
        kept = minimal_vector_subset(scanned, vectors, degrees)
        heap = scanned._queue.heap
        assert heap and min(key for key, *_ in heap) > max(degrees)

        assert minimal_generator_indices(ring, rank, vectors, degrees,
                                         modulo=d_span) == kept
        assert d_span._entries is entries and d_span._entries == snapshot
        assert [d_span.contains(p) for p in probes] == answers

    def test_cancel_fires_inside_a_scan(self):
        ring, modulo, vectors, degrees = self._scan_input(GF(32003))
        rank = len(COORD_DEGREES)
        d_span = ring_membership_span(ring, rank, modulo)
        polls = []

        def cancel():
            polls.append(1)
            return True

        with pytest.raises(ComputationCancelled):
            minimal_generator_indices(ring, rank, vectors, degrees, modulo=d_span,
                                      caps=Caps(cancel=cancel))
        assert polls


def test_huge_coefficient_tie_break():
    """Two degree-1 vectors over Q[x,y]/(xy), one with a coefficient of
    5000 digits: the equal-degree tie-break converts no coefficient to a
    string, which Python refuses above 4300 digits."""
    from fractions import Fraction

    ring = make_ring(QQ, ["x", "y"], ["x*y"])
    sig = ring.sig
    x, y = (Poly.variable(sig, n) for n in ("x", "y"))
    huge = Fraction(10 ** 5000 + 1, 3)
    vectors = [FreeVector(sig, (x.scale(huge), y)), FreeVector(sig, (y, x))]
    assert minimal_generator_indices(ring, 2, vectors, [1, 1]) == [0, 1]
