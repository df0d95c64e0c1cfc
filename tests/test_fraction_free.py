"""The QQ basis engine on integer entries, against the linear-algebra oracles.

Inputs are random homogeneous ideals of Q[x,y,z] and submodules of S^2
with coordinate degrees (0, 1), every coefficient a signed fraction with
denominator 2..12, so clearing denominators, content and signs is
exercised on every input.  Membership is decided by row reduction of the
graded pieces in `tests/oracles.py`, which shares no code with the engine.
"""

import random
from fractions import Fraction

import pytest

from reflextor import groebner
from reflextor.fields import QQ
from reflextor.groebner import (
    FreeVector,
    IncrementalSpan,
    Span,
    buchberger,
    normal_form,
    verify_groebner,
)
from reflextor.hilbert import vector_degree
from reflextor.poly import Poly, RingSignature

from oracles import (
    all_monomials,
    all_pairs_groebner_check,
    homogeneous_membership_oracle,
    span_lift,
    submodule_piece_dimension,
)

SIG = RingSignature(QQ, ("x", "y", "z"))
COORD_DEGREES = (0, 1)


def rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 12))


def form(rng, d, size=3):
    """A homogeneous degree-d polynomial with `size` rational terms."""
    if d < 0:
        return Poly.zero(SIG)
    monos = all_monomials(SIG.nvars, d)
    picks = rng.sample(monos, min(size, len(monos)))
    return Poly.from_dict(SIG, {m: rational(rng) for m in picks})


def vector(rng, d):
    return FreeVector(SIG, tuple(form(rng, d - cd, 2) for cd in COORD_DEGREES))


def ideal_gens(seed):
    rng = random.Random(seed)
    return [form(rng, d) for d in (2, 2, 3)]


def module_gens(seed):
    rng = random.Random(seed)
    return [vector(rng, d) for d in (1, 2, 2)]


def in_module(vectors, v):
    """Oracle membership: adding v leaves the graded piece's dimension."""
    if v.is_zero:
        return True
    d = vector_degree(v, COORD_DEGREES)
    return (submodule_piece_dimension(vectors, COORD_DEGREES, d)
            == submodule_piece_dimension(vectors + [v], COORD_DEGREES, d))


def lead_coefficient(g):
    """The coefficient of the position-over-term lead of a generator."""
    if isinstance(g, Poly):
        return g.leading_coefficient()
    return next(p for p in g.coords if not p.is_zero).leading_coefficient()


def coefficients(g):
    polys = [g] if isinstance(g, Poly) else g.coords
    return [c for p in polys for _, c in p.terms]


CASES = [("ideal", seed) for seed in range(4)] + [("module", seed) for seed in range(3)]


def gens_of(kind, seed):
    return ideal_gens(seed) if kind == "ideal" else module_gens(seed)


def member(kind, gens, v):
    if kind == "ideal":
        return homogeneous_membership_oracle(gens, v)
    return in_module(gens, v)


def rank_of(kind):
    return 1 if kind == "ideal" else 2


@pytest.mark.parametrize("kind,seed", CASES)
def test_basis_checks_and_spans_the_input(kind, seed):
    gens = gens_of(kind, seed)
    gb = buchberger(gens)
    assert verify_groebner(gb) and all_pairs_groebner_check(gb)
    for g in gens:
        assert normal_form(g, gb).is_zero
    for g in gb.generators:
        assert member(kind, gens, g)
        assert lead_coefficient(g) == 1
        assert all(type(c) is Fraction for c in coefficients(g))


@pytest.mark.parametrize("kind,seed", CASES)
def test_normal_forms_are_exact(kind, seed):
    gens = gens_of(kind, seed)
    gb = buchberger(gens)
    rng = random.Random(1000 + seed)
    probes = ([form(rng, d, 6) for d in (2, 3, 4)] if kind == "ideal"
              else [vector(rng, d) for d in (2, 3)])
    # a member built from the inputs with rational multipliers
    if kind == "ideal":
        probes.append(sum((g * form(rng, 4 - g.homogeneous_degree(), 2) for g in gens),
                          Poly.zero(SIG)))
    else:
        probes.append(gens[0].poly_mul(form(rng, 2, 2)) + gens[1].poly_mul(form(rng, 1, 2)))
    span = IncrementalSpan(SIG, rank_of(kind), gens)
    for f in probes:
        nf = normal_form(f, gb)
        assert all(type(c) is Fraction for c in coefficients(nf))
        assert span.contains(f) == member(kind, gens, f)
        assert span.contains(f - nf)
        c = rational(rng)
        scaled = f.scale(c) if kind == "ideal" else f.poly_mul(Poly.constant(SIG, c))
        expect = nf.scale(c) if kind == "ideal" else nf.poly_mul(Poly.constant(SIG, c))
        assert normal_form(scaled, gb) == expect
        assert member(kind, gens, f - nf)
    assert normal_form(probes[-1], gb).is_zero


@pytest.mark.parametrize("kind,seed", CASES)
def test_lift_witnesses_recombine(kind, seed):
    gens = gens_of(kind, seed)
    span = Span(SIG, rank_of(kind), gens)
    rng = random.Random(2000 + seed)
    for _ in range(3):
        if kind == "ideal":
            v = sum((g * form(rng, 3 - g.homogeneous_degree(), 2) for g in gens),
                    Poly.zero(SIG))
        else:
            v = sum((g.poly_mul(form(rng, 3 - vector_degree(g, COORD_DEGREES), 2))
                     for g in gens[1:]), gens[0].poly_mul(form(rng, 2, 2)))
        coeffs = span_lift(span, v)
        assert coeffs is not None
        if kind == "ideal":
            rebuilt = sum((a * g for a, g in zip(coeffs, gens)), Poly.zero(SIG))
        else:
            rebuilt = sum((g.poly_mul(a) for a, g in zip(coeffs, gens)),
                          FreeVector.zero(SIG, 2))
        assert rebuilt == v


@pytest.mark.parametrize("kind,seed", CASES)
def test_engine_sees_only_integers(kind, seed, monkeypatch):
    """`_reduce_full` and `_entry` are past the `_as_terms` boundary: every
    coefficient they receive is an int, whatever the public entry point."""
    seen = []

    def watch(name):
        inner = getattr(groebner, name)

        def wrapper(terms, *args, **kwargs):
            seen.extend(type(c) for c in terms.values())
            return inner(terms, *args, **kwargs)

        monkeypatch.setattr(groebner, name, wrapper)

    watch("_reduce_full")
    watch("_entry")
    gens = gens_of(kind, seed)
    rng = random.Random(3000 + seed)
    probe = form(rng, 3) if kind == "ideal" else vector(rng, 3)
    gb = buchberger(gens)
    normal_form(probe, gb)
    span = Span(SIG, rank_of(kind), gens)
    span_lift(span, probe)
    span.syzygies()
    inc = IncrementalSpan(SIG, rank_of(kind), gens)
    inc.contains(probe)
    assert seen and set(seen) == {int}
