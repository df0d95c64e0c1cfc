"""GF(32003) syzygies as Schreyer generators, against independent oracles.

Over GF(p) a tailed `Span` run pairs no two syzygy entries, so its
syzygies generate the syzygy module without being a basis of it.  On
seeded linear presentations over k[x,y,z,w]/(xy - zw) and over the
five-variable complete intersection of `ring_ci`:

- the minimal resolution has d^2 = 0 and is minimal at every step;
- sum_i (-1)^i sum_{s in shifts_i} H_R(d - s) is the Hilbert function
  H_M(d) of M, each H read off degree-piece dimensions (`oracles`), in
  every degree the computed steps determine: the free modules are R-free,
  so this is Hilbert's series identity with R's numerator over (1-t)^n;
- `syzygies_over_ring` gives the module that the fully tailed run, with
  every pair, gives (`oracles.fully_tailed_syzygies`), and on
  hypothesis-drawn presentations the Betti numbers of a resolution built
  from those runs;
- one instance of the `slow` battery, fast enough for every run: Tate's
  series of k over a complete intersection of degrees 2, 3 in six
  variables, whose resolution loses generators when syzygy entries are
  dropped by lead divisibility, which is unsound without a basis;
- the periodicity onset on a hypersurface, over GF(p) as over QQ, comes
  from a matrix factorization of the equation, and only where the two
  steps do factor it: over GF(p) differentials need not repeat entrywise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reflextor import GF, make_ring
from reflextor.caps import Caps
from reflextor.groebner import FreeVector
from reflextor.hilbert import vector_degree
from reflextor.homology import FreeResolution, free_resolution
from reflextor.modules import (
    cyclic, minimal_generator_indices, minimize, module_from_rows, ring_membership_span,
    syzygies_over_ring,
)
from reflextor.poly import Poly

from oracles import (
    all_monomials,
    fully_tailed_syzygies,
    ideal_piece_dimension,
    submodule_piece_dimension,
)
from test_battery import tate_check

LENGTH = 3


@pytest.fixture(scope="module")
def ring_xy():
    return make_ring(GF(32003), ["x", "y", "z", "w"], ["x*y - z*w"])


def linear_presentation(ring, g, r, seed):
    """A g x r matrix of linear forms with two or three terms each."""
    sig, rng = ring.sig, random.Random(seed)
    monos = all_monomials(sig.nvars, 1)
    rows = [[Poly.from_dict(sig, {m: sig.field.from_int(rng.randrange(1, 32003))
                                  for m in rng.sample(monos, rng.randint(2, 3))})
             for _ in range(r)] for _ in range(g)]
    return module_from_rows(ring, rows, (0,) * g)


def hilbert_function(ring, d):
    if d < 0:
        return 0
    return len(all_monomials(ring.sig.nvars, d)) - ideal_piece_dimension(
        list(ring.ideal.generators), d)


def module_hilbert_function(m, d):
    """dim M_d: S^g in degree d modulo the columns and I*S^g."""
    sig, g = m.ring.sig, m.num_generators
    zero = Poly.zero(sig)
    relations = list(m.columns) + [
        FreeVector(sig, tuple(f if j == i else zero for j in range(g)))
        for f in m.ring.ideal.generators for i in range(g)]
    free = sum(len(all_monomials(sig.nvars, d - e)) if d >= e else 0
               for e in m.gen_degrees)
    return free - submodule_piece_dimension(relations, m.gen_degrees, d)


CASES = [("ring_xy", 2, 3, 1), ("ring_xy", 3, 3, 2), ("ring_xy", 2, 2, 3),
         ("ring_ci", 1, 2, 4), ("ring_ci", 2, 2, 5)]


@pytest.mark.parametrize("which, g, r, seed", CASES)
def test_resolution_against_the_hilbert_function(which, g, r, seed, request):
    ring = request.getfixturevalue(which)
    m = linear_presentation(ring, g, r, seed)
    caps = Caps()
    res = FreeResolution(m, caps)
    for k in range(1, LENGTH + 1):
        res.extend_to(k, caps)
        assert res.check_d_squared() and res.is_minimal(), k
    shifts = [res.shift(i) for i in range(res.length_computed() + 1)]
    # F_{L+1} starts above the least shift of F_L, so degrees up to it are
    # exact; a complete resolution determines every degree
    top = min(shifts[-1], default=0) + (2 if res.complete else 0)
    for d in range(min(m.gen_degrees), top + 1):
        alternating = sum((-1) ** i * hilbert_function(ring, d - s)
                          for i, row in enumerate(shifts) for s in row)
        assert alternating == module_hilbert_function(m, d), d


@pytest.mark.parametrize("which, g, r, seed", [
    ("ring_xy", 2, 3, 1), ("ring_xy", 2, 4, 6), ("ring_xy", 1, 3, 7),
    ("ring_ci", 1, 2, 4), ("ring_ci", 2, 3, 8)])
def test_syzygies_generate_the_fully_tailed_module(which, g, r, seed, request):
    ring = request.getfixturevalue(which)
    m = linear_presentation(ring, g, r, seed)
    vectors, k = list(m.columns), len(m.columns)
    got = syzygies_over_ring(ring, g, vectors)
    modulo = ring_membership_span(ring, g, ())
    full = [ring.reduce_vector(s) for s in fully_tailed_syzygies(ring.sig, g, vectors, modulo)]
    full = [s for s in full if not s.is_zero]
    assert got and full
    for gens, others in ((got, full), (full, got)):
        span = ring_membership_span(ring, k, gens)
        assert all(span.contains(v) for v in others)
    # each generator is a syzygy over R
    degrees = [vector_degree(v, m.gen_degrees) for v in vectors]
    for s in got:
        vector_degree(s, degrees)  # homogeneous
        image = sum((v.poly_mul(a) for a, v in zip(s.coords, vectors)),
                    FreeVector.zero(ring.sig, g))
        assert ring.reduce_vector(image).is_zero


def test_periodicity_onset_from_a_matrix_factorization():
    # over k[x,y]/(xy) the resolution of R/(x^2) is x^2, y, x, y, ...: x^2 * y
    # is x * f, no factorization, and y * x is f
    ring = make_ring(GF(32003), ["x", "y"], ["x*y"])
    x = Poly.variable(ring.sig, "x")
    res = free_resolution(cyclic(ring, (x * x,)), 5)
    assert [res._factorizes(i) for i in (1, 2, 3)] == [False, True, True]
    assert res.periodicity_onset() == 2


def test_residue_field_of_a_complete_intersection():
    tate_check(6, (2, 3), 4, 601)


def fully_tailed_betti(m, length):
    """Betti numbers of M's minimal resolution to `length`, each step the
    fully tailed run's syzygies, reduced in R and cut by the Nakayama scan."""
    ring, base = m.ring, minimize(m)
    shifts, cols = [base.gen_degrees], list(base.columns)
    while cols and len(shifts) <= length:
        shifts.append(tuple(vector_degree(c, shifts[-1]) for c in cols))
        syz = fully_tailed_syzygies(ring.sig, len(shifts[-2]), cols,
                                    ring_membership_span(ring, len(shifts[-2]), ()))
        syz = [s for s in map(ring.reduce_vector, syz) if not s.is_zero]
        degs = [vector_degree(s, shifts[-1]) for s in syz]
        cols = [syz[i] for i in minimal_generator_indices(ring, len(cols), syz, degs)]
    return [len(s) for s in shifts]


LINEAR = st.lists(st.tuples(st.sampled_from(range(4)), st.integers(1, 32002)),
                  min_size=1, max_size=4)


@settings(max_examples=15)
@given(st.integers(1, 2), st.integers(1, 4), st.data())
def test_betti_numbers_match_the_fully_tailed_route(g, r, data):
    ring = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*y - z*w"])
    sig = ring.sig

    def linear(terms):
        return Poly.from_dict(sig, {tuple(int(j == i) for j in range(4)): sig.field.from_int(c)
                                    for i, c in terms})
    rows = [[linear(data.draw(LINEAR)) for _ in range(r)] for _ in range(g)]
    m = module_from_rows(ring, rows, (0,) * g)
    assert free_resolution(m, LENGTH).betti_numbers() == fully_tailed_betti(m, LENGTH)
