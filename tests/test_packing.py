"""Packed terms: the int layout the Groebner engine computes with.

Each property is checked against the tuple definitions in `orders`:
the int order against `compare`, products against exponent addition,
the guard-bit divisibility test against `mono_divides`, and unpacking
against the exponents packed.  The overflow tests drive the engine past
a field's range with two-term inputs only.
"""

import pytest
from hypothesis import given, strategies as st

from reflextor.caps import CapExceeded
from reflextor.fields import QQ
from reflextor.groebner import buchberger, normal_form
from reflextor.orders import (
    FIELD_MAX,
    GREVLEX,
    GT,
    LEX,
    Packing,
    compare,
    elimination,
    mono_divides,
    mono_mul,
)
from reflextor.poly import Poly, RingSignature

# products of two such monomials stay within FIELD_MAX in six variables
EXPONENT = st.integers(0, 1 << 27)


@st.composite
def order_and_monomials(draw, count):
    nvars = draw(st.integers(1, 6))
    order = draw(st.sampled_from(
        [GREVLEX, LEX] + [elimination(k) for k in range(1, nvars + 1)]))
    small = st.integers(0, 3)  # so that divisibility and ties are common
    monos = [tuple(draw(st.lists(st.one_of(small, EXPONENT),
                                 min_size=nvars, max_size=nvars)))
             for _ in range(count)]
    return order, nvars, monos


@given(order_and_monomials(2), st.integers(0, 3), st.integers(0, 3))
def test_int_order_is_position_over_term(case, pa, pb):
    order, nvars, (a, b) = case
    pk = Packing(order, nvars)
    ka, kb = pk.pack(pa, a), pk.pack(pb, b)
    # ascending ints are descending terms: earlier position, then larger monomial
    larger = pa < pb or (pa == pb and compare(order, a, b) == GT)
    assert (ka < kb) == larger
    assert (ka == kb) == (pa == pb and a == b)


@given(order_and_monomials(2), st.integers(0, 3))
def test_product_is_one_addition(case, pos):
    order, nvars, (a, b) = case
    pk = Packing(order, nvars)
    product = pk.pack(pos, mono_mul(a, b))
    assert product == pk.pack(pos, a) + pk.pack(0, b) - pk.base
    assert not product & pk.overflow


@given(order_and_monomials(2), st.integers(0, 3))
def test_guard_bit_divisibility_is_mono_divides(case, pos):
    order, nvars, (a, b) = case
    pk = Packing(order, nvars)
    lead = pk.pack(pos, a)
    for m in (b, mono_mul(a, b)):
        assert pk.divides(pk.sign * lead, pk.pack(pos, m)) == mono_divides(a, m)


@given(order_and_monomials(1), st.integers(0, 50))
def test_unpack_inverts_pack(case, pos):
    order, nvars, (m,) = case
    pk = Packing(order, nvars)
    t = pk.pack(pos, m)
    assert not t & pk.overflow
    assert (t >> pk.pos_shift, pk.mono(t)) == (pos, m)


def test_input_exponent_past_the_range_is_a_cap():
    sig = RingSignature(QQ, ("x", "y"))
    x, y = (Poly.variable(sig, v) for v in ("x", "y"))
    big = Poly.monomial(sig, (FIELD_MAX + 1, 0))
    with pytest.raises(CapExceeded):
        buchberger([big + y])
    with pytest.raises(CapExceeded):
        normal_form(big, buchberger([x]))


def test_lex_reduction_past_the_range_is_a_cap():
    # x^2 -> x*y^N -> y^(2N) modulo x - y^N: the last exponent is 2^31
    sig = RingSignature(QQ, ("x", "y"), LEX)
    x = Poly.variable(sig, "x")
    n = 1 << 30
    gb = buchberger([x - Poly.monomial(sig, (0, n))])
    assert normal_form(x, gb) == Poly.monomial(sig, (0, n))
    with pytest.raises(CapExceeded):
        normal_form(x * x, gb)
