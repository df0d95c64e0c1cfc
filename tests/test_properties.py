"""Randomized and property-based engine checks, seeds fixed."""

import random

import pytest
from hypothesis import given, strategies as st

from reflextor.fields import QQ
from reflextor.groebner import Ideal, Span, buchberger, normal_form
from reflextor.parse import parse_poly
from reflextor.poly import Poly, RingSignature

from oracles import all_monomials, kernel_piece_dimension, submodule_piece_dimension
from suites import (
    membership_oracle_suite,
    parse_roundtrip_suite,
    random_homogeneous,
    spair_recheck_suite,
)

SIG2 = RingSignature(QQ, ("x", "y"))


def _poly_strategy(sig, max_degree=3):
    monos = [m for d in range(max_degree + 1) for m in all_monomials(sig.nvars, d)]
    term = st.tuples(st.sampled_from(monos), st.integers(-4, 4))
    return st.lists(term, min_size=0, max_size=5).map(
        lambda pairs: Poly.from_dict(
            sig, _accumulate(sig, pairs)
        )
    )


def _accumulate(sig, pairs):
    acc = {}
    for m, c in pairs:
        acc[m] = QQ.add(acc.get(m, QQ.zero), QQ.from_int(c))
    return acc


class TestRingAxioms:
    @given(_poly_strategy(SIG2), _poly_strategy(SIG2), _poly_strategy(SIG2))
    def test_distributivity(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(_poly_strategy(SIG2), _poly_strategy(SIG2))
    def test_commutativity(self, f, g):
        assert f * g == g * f

    @given(_poly_strategy(SIG2), _poly_strategy(SIG2))
    def test_equality_agrees_with_subtraction(self, f, g):
        assert (f == g) == (f - g).is_zero

    @given(_poly_strategy(SIG2))
    def test_roundtrip(self, f):
        assert parse_poly(str(f), SIG2) == f


class TestNormalFormProperties:
    @given(_poly_strategy(SIG2, max_degree=4))
    def test_idempotence(self, f):
        gb = buchberger([parse_poly("x^2 - y", SIG2), parse_poly("y^3", SIG2)])
        once = normal_form(f, gb)
        assert normal_form(once, gb) == once

    @given(_poly_strategy(SIG2, max_degree=3), _poly_strategy(SIG2, max_degree=3))
    def test_linearity(self, f, g):
        gb = buchberger([parse_poly("x*y - y^2", SIG2)])
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


class TestSeededSuites:
    def test_membership_oracle_agreement(self):
        passed, failed = membership_oracle_suite(instances=200)
        assert failed == 0
        assert passed >= 200

    def test_spair_recheck(self):
        passed, failed = spair_recheck_suite(instances=40)
        assert failed == 0 and passed > 0

    def test_parse_roundtrip_corpus(self):
        passed, failed = parse_roundtrip_suite(count=100)
        assert (passed, failed) == (100, 0)


class TestSyzygyOracle:
    def test_syzygy_hilbert_function_matches_kernel(self):
        rng = random.Random(5)
        sig = RingSignature(QQ, ("x", "y", "z"))
        for _ in range(8):
            gens = [
                random_homogeneous(sig, rng, rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(rng.randint(2, 3))
            ]
            gens = [g for g in gens if not g.is_zero]
            if len(gens) < 2:
                continue
            syz = Span(sig, 1, gens).syzygies()
            # the syzygies annihilate the generators identically
            for s in syz:
                total = Poly.zero(sig)
                for g, c in zip(gens, s.coords):
                    total = total + g * c
                assert total.is_zero
            # and in each degree they span the full kernel
            from reflextor.groebner import FreeVector

            degs = [g.homogeneous_degree() for g in gens]
            rank_one = [FreeVector(sig, (g,)) for g in gens]
            for e in range(max(degs), max(degs) + 3):
                expected = kernel_piece_dimension(rank_one, [0], e)
                if syz:
                    got = submodule_piece_dimension(syz, degs, e)
                else:
                    got = 0
                assert got == expected


class TestKrullPermutation:
    def test_random_permutations(self):
        rng = random.Random(2)
        sig = RingSignature(QQ, ("x", "y", "z", "w"))
        from reflextor.groebner import krull_dimension

        for _ in range(5):
            gens = [
                random_homogeneous(sig, rng, rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(2)
            ]
            gens = [g for g in gens if not g.is_zero]
            ideal = Ideal(sig, tuple(gens))
            if not ideal.generators or not ideal.is_proper():
                continue
            d = krull_dimension(ideal)
            perm = list(range(4))
            rng.shuffle(perm)
            permuted = tuple(
                Poly.from_dict(
                    sig, {tuple(m[perm[i]] for i in range(4)): c for m, c in g.terms}
                )
                for g in ideal.generators
            )
            assert krull_dimension(Ideal(sig, permuted)) == d
