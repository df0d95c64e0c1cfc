"""Fields, monomial orders, polynomial arithmetic, and the parser."""

import pytest
from fractions import Fraction

from reflextor.fields import GF, QQ, is_prime
from reflextor.orders import GREVLEX, grevlex_key
from reflextor.parse import PolyParseError, parse_poly
from reflextor.poly import MINUS_INFINITY, Poly, RingSignature, SignatureMismatch

from oracles import EQ, GT, LT, all_monomials, compare, grevlex_oracle, sort_key


class TestFields:
    def test_rationals_exact(self):
        assert QQ.div(QQ.from_int(1), QQ.from_int(3)) * 3 == 1

    def test_rationals_exact_on_int_arguments(self):
        for value in (QQ.inv(3), QQ.div(1, 3), QQ.div(2, 6)):
            assert value == Fraction(1, 3)
            assert isinstance(value, Fraction)
        assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    def test_cofactors_cancel_the_lead(self):
        for c, lc in ((6, 4), (-9, 12), (5, 1), (0, 7)):
            a, b = QQ.cofactors(c, lc)
            assert a * c == b * lc and a > 0
        f7 = GF(7)
        a, b = f7.cofactors(3, 5)
        assert a == 1 and f7.mul(b, 5) == 3

    def test_rationals_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            QQ.div(QQ.one, QQ.zero)

    def test_prime_field_arithmetic(self):
        f7 = GF(7)
        assert f7.mul(3, 5) == 1
        assert f7.inv(3) == 5
        assert f7.add(6, 3) == 2

    def test_prime_field_rejects_composites(self):
        for bad in (1, 4, 561, 2**31):
            with pytest.raises(ValueError):
                GF(bad)

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for n in range(2, 42):
            assert is_prime(n) == (n in primes)
        assert is_prime(2**31 - 1)

    def test_field_equality(self):
        assert GF(5) == GF(5)
        assert GF(5) != GF(7)
        assert QQ != GF(5)


class TestOrders:
    def test_grevlex_degree_tie(self):
        # x^2 y vs x y z in three variables: degree ties, reverse-lex decides
        assert compare((2, 1, 0), (1, 1, 1)) == GT

    def test_reflexivity(self):
        assert compare((1, 2, 3), (1, 2, 3)) == EQ

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare((1, 0), (1, 0, 0))

    def test_grevlex_matches_unrolled_definition(self):
        # exhaustive over all monomials of degree <= 4 in 3 and 4 variables
        for nvars in (3, 4):
            monos = [m for d in range(5) for m in all_monomials(nvars, d)]
            for m1 in monos:
                for m2 in monos:
                    assert compare(m1, m2) == grevlex_oracle(m1, m2)

    def test_orders_are_total_and_multiplicative(self):
        # antisymmetry, transitivity, multiplicativity on a full small grid,
        # and the engine's sort key giving the same order
        monos = [m for d in range(4) for m in all_monomials(3, d)]
        keyed = sorted(monos, key=sort_key)
        assert sorted(monos, key=grevlex_key) == keyed[::-1]
        for i in range(len(keyed)):
            for j in range(i + 1, len(keyed)):
                assert compare(keyed[i], keyed[j]) == LT
        one = (0, 0, 0)
        for m in monos:
            if m != one:
                assert compare(m, one) == GT  # well-order: 1 minimal
        for a in monos[:6]:
            for b in monos[:6]:
                for c in monos[:6]:
                    ab = compare(a, b)
                    if ab != EQ:
                        lhs = tuple(x + y for x, y in zip(a, c))
                        rhs = tuple(x + y for x, y in zip(b, c))
                        assert compare(lhs, rhs) == ab

    def test_bad_order_kind(self):
        # grevlex is the one order: named, it is accepted; anything else is not
        assert RingSignature(QQ, ("x",), GREVLEX) == RingSignature(QQ, ("x",))
        for order in ("lex", "weird", None):
            with pytest.raises(ValueError):
                RingSignature(QQ, ("x",), order)


@pytest.fixture(scope="module")
def sig4():
    return RingSignature(QQ, ("x", "y", "z", "w"))


class TestPolyArithmetic:
    def test_product_of_conjugates(self, sig4):
        x = Poly.variable(sig4, "x")
        y = Poly.variable(sig4, "y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_additive_identity(self, sig4):
        f = parse_poly("x^2*y - 3*z + 1/2", sig4)
        assert f + Poly.zero(sig4) == f

    def test_frobenius_mod_three(self):
        sig = RingSignature(GF(3), ("x",))
        f = parse_poly("x + 1", sig)
        assert f ** 3 == parse_poly("x^3 + 1", sig)

    def test_zero_degree_is_minus_infinity(self, sig4):
        assert Poly.zero(sig4).total_degree() == MINUS_INFINITY

    def test_signature_mismatch(self, sig4):
        other = RingSignature(QQ, ("x", "y"))
        with pytest.raises(SignatureMismatch):
            Poly.variable(sig4, "x") + Poly.variable(other, "x")

    def test_canonical_terms_sorted_strictly_descending(self, sig4):
        f = parse_poly("x*y + z^2 + w^4 + y*w^2 + x*z*w + y^3 - z*w + 1", sig4)
        monos = [m for m, _ in f.terms]
        assert len(monos) == 8
        assert all(compare(a, b) == GT for a, b in zip(monos, monos[1:]))
        assert all(c != 0 for _, c in f.terms)

    def test_homogeneous_degree(self, sig4):
        assert parse_poly("x*y + z^2", sig4).homogeneous_degree() == 2
        with pytest.raises(ValueError):
            parse_poly("x + 1", sig4).homogeneous_degree()


class TestParser:
    def test_simple_monomial(self, sig4):
        f = parse_poly("x*y", sig4)
        assert f.total_degree() == 2 and len(f.terms) == 1

    def test_cancellation(self, sig4):
        assert parse_poly("x^2 - x^2", sig4).is_zero

    def test_characteristic_two_square(self):
        sig = RingSignature(GF(2), ("x", "y"))
        f = parse_poly("(x+y)^2", sig)
        assert f == parse_poly("x^2 + y^2", sig)

    def test_rational_literals(self, sig4):
        f = parse_poly("3/2*x + 1/3", sig4)
        assert f.coefficient((1, 0, 0, 0)) == Fraction(3, 2)

    def test_unknown_variable(self, sig4):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("x + q", sig4)
        assert exc.value.position == 4

    def test_malformed(self, sig4):
        for bad in ("x +", "x ^ -2", "(x", "x ** y", ""):
            with pytest.raises(PolyParseError):
                parse_poly(bad, sig4)

    def test_leading_minus(self, sig4):
        assert parse_poly("-x + y", sig4) == parse_poly("y - x", sig4)

    def test_print_parse_fixed_point(self, sig4):
        f = parse_poly("2*x^2*y - 3/2*z*w + w^4 - 1", sig4)
        assert parse_poly(str(f), sig4) == f
        assert str(parse_poly(str(f), sig4)) == str(f)

    def test_zero_prints_and_parses(self, sig4):
        assert str(Poly.zero(sig4)) == "0"
        assert parse_poly("0", sig4).is_zero
