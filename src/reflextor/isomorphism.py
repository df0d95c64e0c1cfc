"""Explicit graded isomorphisms between presented modules.

A matrix of the right entry degrees, with unknown coefficients u_t on the
standard monomials m of each entry (i, j), descends to a map of cokernels
exactly when every source relation maps into the target's relation span.
A normal form modulo that span is linear, so the condition is one matrix:
column t holds the coefficients of NF(col_k[j] * m * e_i) for each
relation k, and the maps are its null space.  The search then hunts that
space for a surjection.  Between graded modules with equal (shifted)
Hilbert series a surjection is automatically bijective, since the graded
pieces have equal finite dimension, so a found surjection is a certified
isomorphism.
"""

import random
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .groebner import FreeVector
from .linalg import nullspace
from .modules import (
    ModuleMap,
    NotWellDefined,
    PresentedModule,
    minimize,
    ring_membership_span,
    subquotient,
)
from .orders import mono_divides
from .poly import Poly


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, lexicographic order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def standard_monomials(ring, d: int):
    """Monomials of degree d surviving modulo the lead terms of I."""
    leads = [g.leading_monomial() for g in ring.ideal.gb().generators]
    return [
        m
        for m in monomials_of_degree(ring.sig.nvars, d)
        if not any(mono_divides(lt, m) for lt in leads)
    ]


@dataclass
class IsoResult:
    map: ModuleMap
    shift: int          # source was twisted by this before mapping
    source: PresentedModule
    target: PresentedModule


def shift_module(m: PresentedModule, s: int) -> PresentedModule:
    out = PresentedModule(m.ring, tuple(d + s for d in m.gen_degrees), m.columns)
    out._minimal = m._minimal
    return out


# The candidate search: a fixed seed keeps it deterministic; past
# _MAX_UNKNOWNS entry coefficients the search is not attempted, and at most
# _TRIES candidate maps are tested.
_SEED = 7
_MAX_UNKNOWNS = 600
_TRIES = 60


def _candidates(solutions, fld):
    """Candidate coefficient vectors, made one at a time as the search asks:
    the distinct nonzero solutions, then random combinations of them from
    `random.Random(_SEED)` until _TRIES are made or 10 * _TRIES draws are
    spent."""
    seen, base = set(), []
    for sol in solutions:
        u = tuple(sol)
        if any(not fld.is_zero(c) for c in u) and u not in seen:
            seen.add(u)
            base.append(u)
            yield u
    rng = random.Random(_SEED)
    attempts = 0
    while len(seen) < _TRIES and base and attempts < 10 * _TRIES:
        attempts += 1
        combo = [fld.zero] * len(base[0])
        for vec in base:
            k = fld.from_int(rng.randint(-2, 2))
            combo = [fld.add(x, fld.mul(k, y)) for x, y in zip(combo, vec)]
        u = tuple(combo)
        if any(not fld.is_zero(c) for c in u) and u not in seen:
            seen.add(u)
            yield u


def find_graded_isomorphism(a: PresentedModule, b: PresentedModule,
                            caps: Caps = None):
    """Explicit isomorphism a(shift) -> b, or None if none is found.

    A returned map is certified: well-definedness is solved linearly,
    surjectivity is membership-checked, and injectivity follows from the
    equality of shifted Hilbert series.
    """
    caps = caps or DEFAULT_CAPS.fresh()
    a = minimize(a, caps)
    b = minimize(b, caps)
    ring = a.ring
    if ring != b.ring:
        return None
    ga, gb = a.num_generators, b.num_generators
    if ga != gb:
        return None
    if ga == 0:
        return IsoResult(ModuleMap(a, b, (), check=False), 0, a, b)
    degs_a, degs_b = sorted(a.gen_degrees), sorted(b.gen_degrees)
    shifts = {db - da for da, db in zip(degs_a, degs_b)}
    if len(shifts) != 1:
        return None
    s = shifts.pop()
    if a.hilbert_series(caps).shift(s) != b.hilbert_series(caps):
        return None
    shifted = shift_module(a, s)
    fld = ring.sig.field

    unknowns = []  # (i over b gens, j over a gens, monomial)
    for i in range(gb):
        for j in range(ga):
            delta = shifted.gen_degrees[j] - b.gen_degrees[i]
            for m in standard_monomials(ring, delta):
                unknowns.append((i, j, m))
    if not unknowns or len(unknowns) > _MAX_UNKNOWNS:
        return None

    # the image of each relation, sum_t u_t * col_k[j] * m * e_i, must lie
    # in b's relation span; normal forms are linear, so its normal form is
    # sum_t u_t * NF(col_k[j] * m * e_i), keyed by (k, position, monomial)
    span = ring_membership_span(ring, gb, b.columns, caps)
    nunk = len(unknowns)
    index, rows = {}, []
    for t, (i, j, m) in enumerate(unknowns):
        unit = FreeVector.unit(ring.sig, gb, i).poly_mul(Poly.monomial(ring.sig, m))
        for k, col in enumerate(shifted.columns):
            if col.coords[j].is_zero:
                continue
            nf = span.normal_form(unit.poly_mul(col.coords[j]))
            for pos, p in enumerate(nf.coords):
                for mono, c in p.terms:
                    key = (k, pos, mono)
                    if key not in index:
                        index[key] = len(rows)
                        rows.append([fld.zero] * nunk)
                    rows[index[key]][t] = c
    # one zero row: no condition survives, every matrix is a map
    solutions = nullspace(rows or [[fld.zero] * nunk], fld)
    for u in _candidates(solutions, fld):
        entries = {}
        for coeff, (i, j, m) in zip(u, unknowns):
            if fld.is_zero(coeff):
                continue
            entries.setdefault((i, j), {})[m] = coeff
        cols = []
        for j in range(ga):
            coords = []
            for i in range(gb):
                coords.append(Poly.from_dict(ring.sig, entries.get((i, j), {})))
            cols.append(FreeVector(ring.sig, coords))
        try:
            candidate = ModuleMap(shifted, b, cols, caps=caps)
        except NotWellDefined:
            continue
        if not subquotient(ring, b.gen_degrees, list(b.columns) + cols, None,
                           caps, want_module=False)[1]:
            return IsoResult(candidate, s, shifted, b)
    return None
