"""Hilbert series: closed forms, graded piece values, additivity."""

import random

import pytest

from reflextor import GF, make_ring
from reflextor.groebner import FreeVector
from reflextor.modules import (
    cyclic,
    free_module,
    kernel,
    minimize,
    module_from_rows,
    tensor,
    transpose,
)
from reflextor.parse import parse_poly
from reflextor.poly import Poly

from oracles import (
    all_monomials,
    is_free_combination_of,
    laurent_div_exact,
    submodule_piece_dimension,
)


class TestLaurent:
    def test_exact_division(self):
        # (1 - t^2) / (1 - t) = 1 + t
        q = laurent_div_exact({0: 1, 2: -1}, {0: 1, 1: -1})
        assert q == {0: 1, 1: 1}

    def test_inexact_division(self):
        assert laurent_div_exact({0: 1, 1: 1}, {0: 1, 1: -1}) is None

    def test_negative_exponents(self):
        q = laurent_div_exact({-1: 1, 1: -1}, {0: 1, 1: -1})
        assert q == {-1: 1, 0: 1}


class TestSeries:
    def test_hypersurface_over_itself(self, ring_a):
        hs = free_module(ring_a, (0,)).hilbert_series()
        assert str(hs) == "(1 - t^2)/(1-t)^4"

    def test_free_shift_multiplies(self, ring_a):
        hs_r = free_module(ring_a, (0,)).hilbert_series()
        hs = free_module(ring_a, (1, 0)).hilbert_series()
        assert hs == hs_r + hs_r.shift(1)

    def test_zero_module(self, ring_a, pa):
        z = minimize(cyclic(ring_a, (pa("1"),)))
        assert z.hilbert_series().is_zero

    def test_polynomial_subring_values(self, ring_a, n_a):
        # R/(x) is a polynomial ring in three variables
        assert n_a.hilbert_series().values(0, 5) == [1, 3, 6, 10, 15, 21]

    def test_values_match_standard_monomial_count(self, ring_c):
        from reflextor.isomorphism import standard_monomials

        hs = free_module(ring_c, (0,)).hilbert_series()
        for d in range(6):
            assert hs.coefficient(d) == len(standard_monomials(ring_c, d))

    def test_additive_along_kernel_sequence(self, ring_a, m_a):
        # 0 -> ker -> M -> M -> 0 for the zero map is degenerate; use the
        # multiplication-by-z injection on R/(x) instead
        from reflextor.modules import ModuleMap
        from reflextor.groebner import FreeVector

        n = cyclic(ring_a, (parse_poly("x", ring_a.sig),))
        z = parse_poly("z", ring_a.sig)
        shifted = free_module(ring_a, (1,))
        phi = ModuleMap(shifted, n, (FreeVector(ring_a.sig, (z,)),))
        ker, _ = kernel(phi)
        coker = minimize(phi.cokernel())
        # 0 -> ker -> source -> target -> coker -> 0 alternating sum vanishes
        lhs = shifted.hilbert_series() + coker.hilbert_series()
        rhs = n.hilbert_series() + ker.hilbert_series()
        assert lhs == rhs

    def test_tensor_symmetric(self, ring_a, m_a, n_a):
        assert tensor(m_a, n_a).hilbert_series() == tensor(n_a, m_a).hilbert_series()

    def test_transpose_square_stable_signature(self, ring_a, m_a):
        diff = transpose(transpose(m_a)).hilbert_series() - m_a.hilbert_series()
        ring_numer = free_module(ring_a, (0,)).hilbert_series().as_dict()
        assert is_free_combination_of(diff, ring_numer) is not None

    def test_generic_linear_matrix_buchsbaum_rim(self):
        # the cokernel of a generic 3x5 matrix of linear forms over a
        # polynomial ring in four variables is resolved by the
        # Buchsbaum-Rim complex: S^3 <- S(-1)^5 <- S(-4)^5 <- S(-5)^3
        p = 32003
        ring = make_ring(GF(p), [f"x{i}" for i in range(4)], [])
        xs = [Poly.variable(ring.sig, v) for v in ring.sig.variables]
        rng = random.Random(7)

        def linear_form():
            total = Poly.zero(ring.sig)
            for x in xs:
                total = total + x.scale(ring.sig.field.from_int(rng.randrange(1, p)))
            return total

        rows = [[linear_form() for _ in range(5)] for _ in range(3)]
        hs = module_from_rows(ring, rows, (0, 0, 0)).hilbert_series()
        assert hs.nvars == 4
        assert hs.as_dict() == {0: 3, 1: -5, 4: 5, 5: -3}


class TestAgainstPieceDimensions:
    """The series against plain linear algebra: dim M_d is dim F_d minus
    the degree-d piece of the S-span of the columns and the ring relations
    g*e_i, which the oracle row-reduces with no Groebner engine."""

    @pytest.mark.parametrize("which, degrees, col_degrees, top", [
        ("ring_a", (0, 1, 1), (2, 2, 3), 4),
        ("ring_c", (0, 1, 1), (2, 2, 3), 4),
        ("ring_ci", (0, 1, 1), (2,), 4),
    ])
    def test_coefficients_match(self, which, degrees, col_degrees, top, request):
        ring = request.getfixturevalue(which)
        sig, fld = ring.sig, ring.sig.field
        rng = random.Random(20261018)

        def form(d):
            if d < 0:
                return Poly.zero(sig)
            m = rng.choice(all_monomials(sig.nvars, d))
            return Poly.monomial(sig, m).scale(fld.from_int(rng.randint(1, 9)))

        def column(d):
            return FreeVector(sig, tuple(form(d - g) for g in degrees))

        cols = [column(d) for d in col_degrees]
        # a constant entry, which makes a generator redundant
        unit = FreeVector.unit(sig, len(degrees), 1) + column(degrees[1])
        # a redundant column, a combination of two others
        extra = col_degrees[0] + 1
        cols += [unit, cols[0].poly_mul(form(1))
                 + unit.poly_mul(form(extra - degrees[1]))]
        rows = [[c.coords[i] for c in cols] for i in range(len(degrees))]
        series = module_from_rows(ring, rows, degrees).hilbert_series()

        relations = [FreeVector.unit(sig, len(degrees), i).poly_mul(g)
                     for g in ring.ideal.generators for i in range(len(degrees))]
        for d in range(top + 1):
            free = sum(len(all_monomials(sig.nvars, d - g)) for g in degrees)
            span = submodule_piece_dimension(cols + relations, degrees, d)
            assert series.coefficient(d) == free - span, d
