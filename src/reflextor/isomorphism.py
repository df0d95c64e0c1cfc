"""Explicit graded isomorphisms between presented modules.

The search solves, degree by degree, the linear conditions for a matrix
of the right entry degrees to descend to a map of cokernels, then hunts
that solution space for a surjection.  Between graded modules with equal
(shifted) Hilbert series a surjection is automatically bijective, since
the graded pieces have equal finite dimension, so a found surjection is a
certified isomorphism.
"""

import random
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .groebner import FreeVector
from .linalg import nullspace
from .modules import ModuleMap, PresentedModule, minimize, subquotient
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


def _piece_basis(ring, coord_degrees, total_degree):
    basis = []
    for i, cd in enumerate(coord_degrees):
        for m in standard_monomials(ring, total_degree - cd):
            basis.append((i, m))
    return basis


def _vector_piece_coords(ring, v: FreeVector, basis_index, fld):
    coords = [fld.zero] * len(basis_index)
    for i, p in enumerate(v.coords):
        for m, c in ring.reduce(p).terms:
            key = (i, m)
            if key not in basis_index:
                raise RuntimeError("reduced vector leaves the standard basis")
            coords[basis_index[key]] = fld.add(coords[basis_index[key]], c)
    return coords


@dataclass
class IsoResult:
    map: ModuleMap
    shift: int          # source was twisted by this before mapping
    source: PresentedModule
    target: PresentedModule

    def matrix_strings(self):
        return self.map.matrix_strings()


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


def _candidates(solutions, nunk, fld):
    """Candidate coefficient vectors, made one at a time as the search asks:
    the distinct nonzero solutions cut to the `nunk` unknowns, then random
    combinations of them from `random.Random(_SEED)` until _TRIES are
    made or 10 * _TRIES draws are spent."""
    seen, base = set(), []
    for sol in solutions:
        u = tuple(sol[:nunk])
        if any(not fld.is_zero(c) for c in u) and u not in seen:
            seen.add(u)
            base.append(u)
            yield u
    rng = random.Random(_SEED)
    attempts = 0
    while len(seen) < _TRIES and base and attempts < 10 * _TRIES:
        attempts += 1
        combo = [fld.zero] * nunk
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

    rows = []
    slack_total = 0
    col_blocks = []
    for col, cdeg in zip(shifted.columns, shifted.col_degrees):
        basis = _piece_basis(ring, b.gen_degrees, cdeg)
        index = {key: k for k, key in enumerate(basis)}
        span_vectors = []
        for w, wdeg in zip(b.columns, b.col_degrees):
            for m in monomials_of_degree(ring.sig.nvars, cdeg - wdeg):
                mono = Poly.monomial(ring.sig, m)
                span_vectors.append(
                    _vector_piece_coords(ring, ring.reduce_vector(
                        w.poly_mul(mono)), index, fld)
                )
        unk_cols = []
        for (i, j, m) in unknowns:
            cj = col.coords[j]
            if cj.is_zero:
                unk_cols.append([fld.zero] * len(basis))
                continue
            image = ring.reduce(cj * Poly.monomial(ring.sig, m))
            vec = [fld.zero] * len(basis)
            for mono2, c in image.terms:
                vec[index[(i, mono2)]] = c
            unk_cols.append(vec)
        col_blocks.append((unk_cols, span_vectors, len(basis)))
        slack_total += len(span_vectors)

    nunk = len(unknowns)
    matrix = []
    slack_offset = 0
    for unk_cols, span_vectors, nbasis in col_blocks:
        for r in range(nbasis):
            row = [fld.zero] * (nunk + slack_total)
            for u in range(nunk):
                row[u] = unk_cols[u][r]
            for w in range(len(span_vectors)):
                row[nunk + slack_offset + w] = fld.neg(span_vectors[w][r])
            matrix.append(row)
        slack_offset += len(span_vectors)

    if matrix:
        solutions = nullspace(matrix, fld)
    else:
        # no relations in the source: any degree-zero matrix is a map
        solutions = []
        for u in range(nunk):
            vec = [fld.zero] * nunk
            vec[u] = fld.one
            solutions.append(vec)
    for u in _candidates(solutions, nunk, fld):
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
        except Exception:
            continue
        if not subquotient(ring, b.gen_degrees, list(b.columns) + cols, None,
                           caps, want_module=False)[1]:
            return IsoResult(candidate, s, shifted, b)
    return None
