"""Packed terms: the int layout the Groebner engine computes with.

Each property is checked against tuple definitions: the int order
against the oracle's grevlex `compare`, products against exponent addition,
the guard-bit divisibility test against `mono_divides`, and unpacking
against the exponents packed.  The overflow tests drive the engine past
a field's range with two-term inputs only.
"""

import pytest
from hypothesis import given, strategies as st

from reflextor.caps import CapExceeded, Caps
from reflextor.fields import QQ
from reflextor.groebner import buchberger, normal_form
from reflextor.orders import FIELD_MAX, Packing, mono_divides, mono_mul
from reflextor.poly import Poly, RingSignature

from oracles import GT, compare

# products of two such monomials stay within FIELD_MAX in six variables
EXPONENT = st.integers(0, 1 << 27)


@st.composite
def monomials(draw, count):
    nvars = draw(st.integers(1, 6))
    small = st.integers(0, 3)  # so that divisibility and ties are common
    monos = [tuple(draw(st.lists(st.one_of(small, EXPONENT),
                                 min_size=nvars, max_size=nvars)))
             for _ in range(count)]
    return nvars, monos


@given(monomials(2), st.integers(0, 3), st.integers(0, 3))
def test_int_order_is_position_over_term(case, pa, pb):
    nvars, (a, b) = case
    pk = Packing(nvars)
    ka, kb = pk.pack(pa, a), pk.pack(pb, b)
    # ascending ints are descending terms: earlier position, then larger monomial
    larger = pa < pb or (pa == pb and compare(a, b) == GT)
    assert (ka < kb) == larger
    assert (ka == kb) == (pa == pb and a == b)


@given(monomials(2), st.integers(0, 3))
def test_product_is_one_addition(case, pos):
    nvars, (a, b) = case
    pk = Packing(nvars)
    product = pk.pack(pos, mono_mul(a, b))
    assert product == pk.pack(pos, a) + pk.pack(0, b) - pk.base
    assert not product & pk.overflow


@given(monomials(2), st.integers(0, 3))
def test_guard_bit_divisibility_is_mono_divides(case, pos):
    nvars, (a, b) = case
    pk = Packing(nvars)
    lead = pk.pack(pos, a)
    for m in (b, mono_mul(a, b)):
        assert pk.divides(lead, pk.pack(pos, m)) == mono_divides(a, m)


@given(monomials(1), st.integers(0, 50))
def test_unpack_inverts_pack(case, pos):
    nvars, (m,) = case
    pk = Packing(nvars)
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


def test_spair_past_the_range_is_a_cap():
    # the leads x^n*y and x*y^n, n = 2^30, have the lcm x^n*y^n of degree
    # 2^31, one past FIELD_MAX, so the pair is past the default degree cap
    # and its S-vector's terms past the packed range.  Under grevlex a
    # reduction step never raises a term's degree, so only an S-vector (or
    # an input) can leave the range.
    sig = RingSignature(QQ, ("x", "y"))
    n = 1 << 30
    f = Poly.from_dict(sig, {(n, 1): 1, (n - 1, 2): -1})
    g = Poly.from_dict(sig, {(1, n): 1, (0, n + 1): -1})
    with pytest.raises(CapExceeded, match=r"degree cap exceeded \(120\)"):
        buchberger([f, g])
    with pytest.raises(CapExceeded, match="exponent cap exceeded"):
        buchberger([f, g], Caps(max_degree=2**40))
