"""Syzygies over R reduced modulo the ring inside the run, against the
older route.

`syzygies_over_ring` reduces each syzygy modulo I*S^count while it is
still a term dict, and keeps that dict on the returned vector as its
packed form.  `oracles.syzygies_over_ring_reference` takes the bare
`Span` syzygies and reduces them in R one coordinate at a time.  The
ideal's reduced basis times each e_i is a reduced basis of I*S^count, and
reduced normal forms are unique, so on every instance below, over QQ and
GF(32003), plain and modulo a seeded relation span:

- the two lists are equal, vector for vector and in order, and the run
  charges the same pairs;
- each vector's packed form is what `_as_terms` makes of its coordinates,
  is handed out as a copy, still checks the rank, and leaves equality and
  hashing alone.

A tailed run interreduces only its syzygy block, and on the same sweep
its syzygies over R, in order, and its pairs are those of the older route
that interreduces the whole augmented basis
(`oracles.span_syzygies_full_reference`).

`QuotientRing.reduce_vector` returns a reduced vector itself, so a
presentation keeps the packed form of its columns.
"""

import random

import pytest

from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps
from reflextor.groebner import FreeVector, _as_terms
from reflextor.modules import PresentedModule, ring_membership_span, syzygies_over_ring
from reflextor.poly import Poly

from oracles import random_form, span_syzygies_full_reference, syzygies_over_ring_reference

RINGS = {
    "xy": (["x", "y"], ["x*y"]),
    "xy-zw": (["x", "y", "z", "w"], ["x*y - z*w"]),
    "ci": (["x", "y", "z", "u", "v"], ["x^2+y*z-u*v", "z*u-y^2+x*v", "x*y*z-v^3"]),
    "polynomial": (["x", "y", "z"], []),
}
FIELDS = {"QQ": QQ, "GF(32003)": GF(32003)}


def seeded_vectors(sig, rank, degrees, seed):
    """Vectors of S^rank with homogeneous coordinates of the given degrees,
    two terms each, coefficients 1..9."""
    rng = random.Random(seed)
    return [FreeVector(sig, tuple(random_form(sig, rng, d, 2, 10) for _ in range(rank)))
            for d in degrees]


def instances(ring):
    """(rank, vectors, relations): the residue field's first differential,
    then seeded rank-two vectors plain and modulo one seeded relation."""
    sig = ring.sig
    variables = [FreeVector(sig, (Poly.variable(sig, v),)) for v in sig.variables]
    vectors = seeded_vectors(sig, 2, (1, 1, 1), 20261021)
    relation = seeded_vectors(sig, 2, (1,), 7)
    return [(1, variables, ()), (2, vectors, ()), (2, vectors, relation)]


def check_packed_form(v):
    fld = v.sig.field
    assert v._packed is not None
    fresh = FreeVector(v.sig, v.coords)
    want = _as_terms(fresh, v.rank, fld)
    den, terms = _as_terms(v, v.rank, fld)
    assert (den, terms) == want
    terms[min(terms) - 1] = 1  # a caller's dict is its own
    terms.clear()
    assert _as_terms(v, v.rank, fld) == want
    with pytest.raises(ValueError):
        _as_terms(v, v.rank + 1, fld)
    assert v == fresh and hash(v) == hash(fresh)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", RINGS)
def test_syzygies_reduced_in_the_run_match_the_coordinate_route(name, field):
    names, ideal = RINGS[name]
    ring = make_ring(FIELDS[field], names, ideal)
    ring.ideal.gb()  # both routes find the ring's basis built
    for rank, vectors, relations in instances(ring):
        caps, ref_caps = Caps(), Caps()
        got = syzygies_over_ring(
            ring, rank, vectors, caps,
            modulo=ring_membership_span(ring, rank, relations, caps))
        want = syzygies_over_ring_reference(
            ring, rank, vectors, ref_caps,
            modulo=ring_membership_span(ring, rank, relations, ref_caps))
        assert got and got == want
        assert caps._pairs_used == ref_caps._pairs_used
        for v in got:
            check_packed_form(v)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", RINGS)
def test_syzygies_match_the_full_interreduction_route(name, field):
    names, ideal = RINGS[name]
    ring = make_ring(FIELDS[field], names, ideal)
    ring.ideal.gb()
    for rank, vectors, relations in instances(ring):
        caps, ref_caps = Caps(), Caps()
        got = syzygies_over_ring(
            ring, rank, vectors, caps,
            modulo=ring_membership_span(ring, rank, relations, caps))
        want = span_syzygies_full_reference(
            ring.sig, rank, vectors, ref_caps,
            modulo=ring_membership_span(ring, rank, relations, ref_caps),
            ideal=ring.ideal)
        assert got and got == want
        assert caps._pairs_used == ref_caps._pairs_used


def test_reduce_vector_returns_a_reduced_vector_itself(ring_a):
    sig = ring_a.sig
    x, y, z = (Poly.variable(sig, v) for v in "xyz")
    reduced = FreeVector(sig, (x * x, z))
    assert ring_a.reduce_vector(reduced) is reduced
    unreduced = FreeVector(sig, (x * x * y + z, z))
    got = ring_a.reduce_vector(unreduced)
    assert got is not unreduced
    assert got == FreeVector(sig, (z, z))


def test_presented_columns_keep_their_packed_form(ring_ci):
    sig = ring_ci.sig
    variables = [FreeVector(sig, (Poly.variable(sig, v),)) for v in sig.variables]
    syz = syzygies_over_ring(ring_ci, 1, variables, Caps())
    m = PresentedModule(ring_ci, (1,) * len(variables), syz)
    assert len(m.columns) == len(syz)
    assert all(a is b and a._packed is not None for a, b in zip(m.columns, syz))
