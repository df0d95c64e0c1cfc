"""Quotient rings: construction, minimal primes, height, depth certificates."""

import pytest

from reflextor.fields import QQ
from reflextor.groebner import Ideal, lead_covers, radical_membership
from reflextor.parse import parse_poly
from reflextor.rings import (
    QuotientRing,
    RIdeal,
    RingConstructionError,
    UnsupportedIdealClass,
    make_ring,
)


class TestMakeRing:
    def test_hypersurface_fixture(self, ring_a):
        assert ring_a.hypersurface
        assert ring_a.dim == 3

    def test_two_planes_fixture(self, ring_c):
        assert not ring_c.hypersurface
        assert ring_c.dim == 2

    def test_field_quotient(self):
        ring = make_ring(QQ, ["x"], ["x"])
        assert ring.dim == 0
        assert ring.depth() == 0
        assert ring.is_cohen_macaulay()

    def test_unit_ideal_rejected(self):
        with pytest.raises(RingConstructionError):
            make_ring(QQ, ["x"], ["x", "x - 1"])

    def test_inhomogeneous_rejected(self):
        with pytest.raises(RingConstructionError):
            make_ring(QQ, ["x", "y"], ["x*y - 1"])

    def test_element_equality_via_normal_forms(self, ring_a, pa):
        assert ring_a.reduce(pa("x*y + z") - pa("z")).is_zero
        assert not ring_a.reduce(pa("x") - pa("y")).is_zero


class TestMinimalPrimes:
    def test_monomial_hypersurface(self, ring_a):
        primes = ring_a.minimal_primes()
        assert [[str(g) for g in p.generators] for p in primes] == [["x"], ["y"]]
        assert all(p.prime_status == "verified" for p in primes)

    def test_two_planes(self, ring_c):
        primes = ring_c.minimal_primes()
        assert [[str(g) for g in p.generators] for p in primes] == [
            ["x", "y"],
            ["u", "v"],
        ]

    def test_field_quotient_single_prime(self):
        # the ambient prime is (x); as an ideal of R = Q[x]/(x) it is zero,
        # so its reduced generator list is empty
        ring = make_ring(QQ, ["x"], ["x"])
        primes = ring.minimal_primes()
        assert len(primes) == 1
        assert primes[0].generators == ()
        assert primes[0].lift().contains(parse_poly("x", ring.sig))

    def test_zero_ideal_is_its_own_minimal_prime(self):
        ring = make_ring(QQ, ["x", "y"], [])
        primes = ring.minimal_primes()
        assert len(primes) == 1 and primes[0].generators == ()

    def test_factors_route(self):
        sig_texts = ["x*y^2 + x*z^2"]
        ring = make_ring(QQ, ["x", "y", "z"], ["x^2 - y^2"])
        primes = ring.minimal_primes(
            factors=[parse_poly("x - y", ring.sig), parse_poly("x + y", ring.sig)]
        )
        assert len(primes) == 2
        assert all(p.prime_status == "asserted" for p in primes)

    def test_factors_must_multiply_to_the_generator(self):
        ring = make_ring(QQ, ["x", "y"], ["x^2 - y^2"])
        with pytest.raises(UnsupportedIdealClass):
            ring.minimal_primes(factors=[parse_poly("x - y", ring.sig)])

    def test_candidates_route_verified(self, pa):
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
        primes = ring.minimal_primes(
            candidates=[[parse_poly("x", ring.sig)], [parse_poly("y", ring.sig)]]
        )
        assert len(primes) == 2

    def test_candidates_must_contain_ideal(self):
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
        with pytest.raises(UnsupportedIdealClass) as err:
            ring.minimal_primes(candidates=[[parse_poly("z", ring.sig)]])
        assert "witness" in str(err.value)

    def test_candidates_irredundance(self):
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
        with pytest.raises(UnsupportedIdealClass):
            ring.minimal_primes(candidates=[
                [parse_poly("x", ring.sig)],
                [parse_poly("y", ring.sig)],
                [parse_poly("x", ring.sig), parse_poly("z", ring.sig)],
            ])

    def test_unsupported_class(self):
        ring = make_ring(QQ, ["x", "y", "z"], ["x^3 + y^3 + z^3", "x*y*z"][0:1])
        # non-monomial, non-factored principal ideal: needs caller input
        ring2 = QuotientRing(ring.sig, [parse_poly("x^3 + y^3 + z^3", ring.sig)])
        with pytest.raises(UnsupportedIdealClass):
            ring2.minimal_primes()

    def test_intersection_radical_invariant(self, ring_a, ring_c):
        # the intersection of the minimal primes has the same radical as I
        from reflextor.groebner import intersect_ideals

        for ring in (ring_a, ring_c):
            primes = ring.minimal_primes()
            inter = Ideal(ring.sig, primes[0].generators)
            for p in primes[1:]:
                inter = intersect_ideals(inter, Ideal(ring.sig, p.generators))
            for g in inter.generators:
                assert radical_membership(g, ring.ideal)
            for g in ring.ideal.generators:
                assert radical_membership(g, inter)


class TestHeight:
    def test_sum_of_minimal_primes_fixture_a(self, ring_a, pa):
        j = RIdeal(ring_a, (pa("x"), pa("y")))
        assert ring_a.height(j) == 1

    def test_sum_of_minimal_primes_two_planes(self, ring_c):
        primes = ring_c.minimal_primes()
        assert ring_c.height(primes[0].sum(primes[1])) == 2

    def test_minimal_primes_have_height_zero(self, ring_a, ring_c):
        for ring in (ring_a, ring_c):
            for p in ring.minimal_primes():
                assert ring.height(p) == 0

    def test_dim_is_max_over_minimal_primes(self, ring_a, ring_c):
        from reflextor.groebner import krull_dimension

        for ring in (ring_a, ring_c):
            dims = [
                krull_dimension(Ideal(ring.sig, p.generators))
                if p.generators else ring.sig.nvars
                for p in ring.minimal_primes()
            ]
            assert ring.dim == max(dims)

    def test_unit_sum_rejected(self, ring_a, pa):
        with pytest.raises(ValueError):
            ring_a.height(RIdeal(ring_a, (pa("1"),)))

    def test_equidimensionality_guard(self):
        # a plane union a line: (x) cap (y, z) = (xy, xz): not equidimensional
        ring = make_ring(QQ, ["x", "y", "z"], ["x*y", "x*z"])
        from reflextor.rings import RingConstructionError

        with pytest.raises(RingConstructionError):
            ring.height(RIdeal(ring, (parse_poly("x", ring.sig),)))

    def test_monomial_height_one_enumeration(self, ring_a):
        named = {
            tuple(str(g) for g in p.generators)
            for p in ring_a.monomial_primes_of_height_at_most(1)
        }
        assert ("x", "y") in named
        assert ("x", "z") in named
        assert ("x",) in named and ("y",) in named
        assert ("x", "z", "w") not in named

    @pytest.mark.parametrize(
        "fixture", ["ring_a", "ring_b", "ring_c", "ring_regular", None]
    )
    def test_enumeration_equals_filtering_covers_by_height(self, fixture, request):
        # None: Q[x,y,z]/(x, yz), where x lies in I, so the prime on the
        # cover {x, y} has the one generator y and its height is not read
        # from its generator count
        ring = (request.getfixturevalue(fixture) if fixture
                else make_ring(QQ, ["x", "y", "z"], ["x", "y*z"]))
        primes = [ring._variable_prime(c) for c in lead_covers(ring.ideal)]
        for bound in range(ring.sig.nvars + 1):
            expect = sorted((p for p in primes if ring.height(p) <= bound),
                            key=lambda p: (len(p.generators), str(p)))
            got = ring.monomial_primes_of_height_at_most(bound)
            assert [str(p) for p in got] == [str(p) for p in expect]

    def test_enumeration_keeps_the_equidimensionality_guard(self):
        ring = make_ring(QQ, ["x", "y", "z"], ["x*y", "x*z"])
        with pytest.raises(RingConstructionError):
            ring.monomial_primes_of_height_at_most(1)


class TestDepthCertificates:
    def test_hypersurface_is_cm(self, ring_a):
        assert ring_a.depth() == 3
        assert ring_a.is_cohen_macaulay()

    def test_two_planes_depth_one(self, ring_c):
        assert ring_c.depth() == 1
        assert not ring_c.is_cohen_macaulay()

    def test_reducedness_certificates(self, ring_a, ring_c):
        assert ring_a.is_reduced() is True
        assert ring_c.is_reduced() is True
        nonreduced = make_ring(QQ, ["x", "y"], ["x^2"])
        assert nonreduced.is_reduced() is False
