"""Resolutions, Tor/Ext, depth, torsion, and the depth formula."""

import math

import pytest

from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps, CapExceeded
from reflextor.homology import (
    INFINITE_DEPTH,
    depth,
    depth_formula_check,
    ext,
    free_resolution,
    is_torsion,
    pd,
    resolution,
    tor,
    tor_vanishing,
)
from reflextor.modules import (
    PresentedModule,
    cyclic,
    free_module,
    minimize,
    module_from_rows,
    syzygy,
    transpose,
)
from reflextor.parse import parse_poly
from reflextor.rings import RIdeal

from oracles import is_torsion_reference


class TestResolutions:
    def test_periodic_resolution_of_partner(self, ring_a, n_a):
        res = free_resolution(n_a, 6)
        # the shared cache may already extend further; read the first window
        assert res.betti_numbers()[:7] == [1] * 7
        diffs = [
            [str(c.coords[0]) for c in res.differential(k)]
            for k in range(1, 7)
        ]
        assert diffs == [["x"], ["y"], ["x"], ["y"], ["x"], ["y"]]
        assert res.periodicity_onset() == 1
        assert res.check_d_squared()
        assert res.is_minimal()

    def test_main_fixture_resolves_in_one_step(self, ring_a, m_a):
        res = free_resolution(m_a, 6)
        assert res.complete
        assert res.betti_numbers() == [3, 1]

    def test_free_module_resolution_is_trivial(self, ring_a):
        res = free_resolution(free_module(ring_a, (0, 1)), 4)
        assert res.complete and res.length_computed() == 0

    def test_resolution_cap(self, ring_a, n_a):
        with pytest.raises(CapExceeded):
            resolution(n_a).extend_to(4, Caps(resolution_length=2))

    def test_cap_message_names_the_first_step_past_the_cap(self, ring_a, n_a):
        with pytest.raises(CapExceeded,
                           match=r"^resolution length 3 exceeds the cap \(2\)$"):
            resolution(n_a).extend_to(6, Caps(resolution_length=2))

    def test_cap_rule_ignores_the_cache(self, ring_a, m_a):
        res = resolution(m_a)
        res.extend_to(2)  # the cache now knows pd M = 1
        assert res.complete and res.length_computed() == 1
        # a walk of one step cannot see that end, so a cap of 1 still stops
        with pytest.raises(CapExceeded,
                           match=r"^resolution length 2 exceeds the cap \(1\)$"):
            res.extend_to(2, Caps(resolution_length=1))
        res.extend_to(5, Caps(resolution_length=2))  # the end is inside a cap of 2

    def test_view_is_cut_at_the_length_asked_for(self, ring_a, n_a, m_a):
        caps = Caps()  # one run, so one resolution of each module
        resolution(n_a, caps).extend_to(5, caps)
        view = free_resolution(n_a, 1, caps)
        assert view.betti_numbers() == [1, 1] and not view.complete
        assert view.periodicity_onset() is None
        assert resolution(n_a, caps).length_computed() >= 5
        # pd M = 1 is found at step 2, past a one-step walk
        assert not free_resolution(m_a, 1, caps).complete
        assert free_resolution(m_a, 2, caps).complete

    def test_free_base_ends_at_step_zero(self, ring_a):
        res = free_resolution(free_module(ring_a, (0, 1)), 0)
        assert res.complete and res.betti_numbers() == [2]

    def test_syzygy_past_the_cap_of_a_finite_resolution(self, ring_a, m_a, n_a):
        # pd M = 1 lies inside a cap of 3, so the 5th syzygy is zero, as
        # Tor_5(M, N) is under the same cap
        caps = Caps(resolution_length=3)
        assert syzygy(m_a, 5, caps).num_generators == 0
        assert tor(m_a, n_a, 5, caps).is_zero

    def test_every_pair_is_charged_to_the_callers_caps(self, ring_a, pa,
                                                       monkeypatch):
        # a fresh module, so its resolution's base is minimized inside `tor`
        m = module_from_rows(ring_a, [
            [pa("x"), pa("y"), pa("z"), pa("x*z"), pa("y*z")],
            [pa("z"), pa("w"), pa("0"), pa("z^2"), pa("w*z")],
        ], (0, 0))
        ticks = []
        real_tick = Caps.tick
        monkeypatch.setattr(Caps, "tick",
                            lambda self, *a: (ticks.append(1), real_tick(self, *a)))
        caps = Caps()
        tor(m, m, 1, caps)
        assert caps._pairs_used == len(ticks) > 0

    def test_cached_steps_are_charged_once_per_run(self, ring_a, pa):
        m = module_from_rows(ring_a, [
            [pa("x"), pa("y"), pa("z"), pa("x*z"), pa("y*z")],
            [pa("z"), pa("w"), pa("0"), pa("z^2"), pa("w*z")],
        ], (0, 0))
        first, again = Caps(), Caps()
        free_resolution(m, 3, first)
        assert first._pairs_used > 0
        # a later run pays what the walk first cost, and only once
        free_resolution(m, 3, again)
        free_resolution(m, 2, again)
        assert again._pairs_used == first._pairs_used
        # a walk to 4 pays for step 3, which the first walk did not take
        free_resolution(m, 4, first)
        longer = Caps()
        free_resolution(m, 4, longer)
        assert longer._pairs_used == first._pairs_used
        with pytest.raises(CapExceeded) as error:
            free_resolution(m, 4, Caps(max_pairs=first._pairs_used - 1))
        assert str(error.value) == f"pair cap exceeded ({first._pairs_used - 1})"

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_degree_cap_ignores_the_cache(self, ring_a, pa, cap):
        m = cyclic(ring_a, (pa("x^3"), pa("z^2"), pa("w^2")))
        # a walk under the default caps leaves steps past the smaller cap
        resolution(m).extend_to(4)
        caps = Caps(max_degree=cap)
        with pytest.raises(CapExceeded) as error:
            resolution(m, caps).extend_to(4, caps)
        assert str(error.value) == f"degree cap exceeded ({cap})"

    def test_d_squared_on_residue_field(self, ring_a):
        k = ring_a.residue_field_module()
        res = free_resolution(k, 4)
        assert res.check_d_squared()
        assert res.is_minimal()
        assert res.betti_numbers()[:5] == [1, 4, 7, 8, 8]


class TestPd:
    def test_finite(self, m_a):
        result = pd(m_a)
        assert not result.above_cap and result.value == 1

    def test_above_cap_with_periodicity_hint(self, n_a):
        result = pd(n_a, Caps(resolution_length=6))
        assert result.above_cap
        assert result.periodicity_onset == 1
        assert "AboveCap" in str(result)

    def test_free(self, ring_a):
        assert pd(free_module(ring_a, (0,))).value == 0

    def test_value_reads_the_walk_to_the_cap_not_the_cache(self, m_a, n_a):
        resolution(m_a).extend_to(2)  # the cache knows pd M = 1
        # a one-step walk cannot see that end, so pd M = 1 is above a cap of 1
        assert pd(m_a, Caps(resolution_length=1)).above_cap
        assert pd(m_a, Caps(resolution_length=2)).value == 1
        resolution(n_a).extend_to(6)  # the cache knows onset 1
        # one step has no d_2, so it shows no 2-periodicity yet
        assert pd(n_a, Caps(resolution_length=1)).periodicity_onset is None


class TestTorExt:
    def test_tor_vanishing_window_main(self, m_a, n_a):
        v = tor_vanishing(m_a, n_a, 6)
        assert v.all_zero
        assert v.certificate == "finite_pd"

    def test_tor_against_free_vanishes(self, ring_a, m_a, n_a):
        free = free_module(ring_a, (0,))
        for i in (1, 2, 3):
            assert tor(m_a, free, i, want_module=False).is_zero
            assert ext(free, n_a, i, want_module=False).is_zero

    def test_small_fixture_tor_one(self, m_b, n_b):
        assert not tor(m_b, n_b, 1, want_module=False).is_zero

    def test_tor_balance_hilbert_series(self, ring_a, m_a, n_a, tensor_a):
        pairs = [(m_a, n_a), (m_a, tensor_a), (n_a, n_a)]
        for left, right in pairs:
            for i in (0, 1, 2, 3):
                a = tor(left, right, i)
                b = tor(right, left, i)
                assert a.is_zero == b.is_zero
                assert a.module.hilbert_series() == b.module.hilbert_series()

    def test_tor_zero_is_tensor(self, m_a, n_a, tensor_a):
        t0 = tor(m_a, n_a, 0)
        assert t0.module.hilbert_series() == tensor_a.hilbert_series()

    def test_ext_transpose_grade_split(self, ring_a, m_a):
        # grade of (y,z,w) in the quotient is 2: Ext^1 of the transpose
        # vanishes, Ext^2 does not
        free = free_module(ring_a, (0,))
        tr = transpose(m_a)
        assert ext(tr, free, 1, want_module=False).is_zero
        assert not ext(tr, free, 2, want_module=False).is_zero

    def test_segment_map_columns_are_checked_degree_zero(self, pa, n_a):
        from reflextor.homology import _tensor_id
        from reflextor.modules import DegreeError

        # x (x) id_N on one generator: degree 1 over a target in degree 0
        assert [c.coords for c in _tensor_id([(pa("x"),)], n_a, (1,), (0,))] \
            == [(pa("x"),)]
        with pytest.raises(DegreeError):
            _tensor_id([(pa("x"),)], n_a, (0,), (0,))

    def test_ext_of_residue_field_detects_depth(self, ring_a, n_a):
        k = ring_a.residue_field_module()
        assert ext(k, n_a, 0, want_module=False).is_zero
        assert ext(k, n_a, 2, want_module=False).is_zero
        assert not ext(k, n_a, 3, want_module=False).is_zero

    def test_zero_answers_agree_with_and_without_the_module(self, ring_b,
                                                           m_b, n_b):
        # the zero module makes rank-0 middles; both modes of the one
        # kernel-mod-image routine must give the same verdict and certificate
        mods = [m_b, n_b, ring_b.residue_field_module(), free_module(ring_b, ())]
        for left in mods:
            for right in mods:
                for i in range(4):
                    for homology in (tor, ext):
                        bare = homology(left, right, i, want_module=False)
                        full = homology(left, right, i)
                        assert bare.module is None
                        assert bare.is_zero == full.is_zero
                        assert bare.kernel_generators == full.kernel_generators
                        assert bare.relation_vectors == full.relation_vectors
                        assert full.is_zero == (full.module.num_generators == 0)


class TestDepth:
    def test_fixture_depths(self, ring_a, m_a, n_a, tensor_a):
        assert depth(m_a) == 2
        assert depth(n_a) == 3
        assert depth(tensor_a) == 2
        assert ring_a.depth() == 3

    def test_residue_field_depth_zero(self, ring_a):
        assert depth(ring_a.residue_field_module()) == 0

    def test_zero_module_infinite(self, ring_a, pa):
        z = minimize(cyclic(ring_a, (pa("1"),)))
        assert depth(z) == INFINITE_DEPTH
        assert math.isinf(depth(z))

    def test_auslander_buchsbaum(self, ring_a, m_a):
        # pd + depth = depth of the ring, on every finite-pd fixture
        modules = [m_a, free_module(ring_a, (0,)), free_module(ring_a, (0, 2))]
        for m in modules:
            result = pd(m)
            assert not result.above_cap
            assert result.value + depth(m) == ring_a.depth()


class TestTorsion:
    def test_residue_field_is_torsion(self, ring_a):
        assert is_torsion(ring_a.residue_field_module())

    def test_partner_is_not_torsion(self, ring_a, n_a):
        assert not is_torsion(n_a)

    def test_small_fixture_tor_modules_are_torsion(self, m_b, n_b):
        for i in range(1, 5):
            assert is_torsion(tor(m_b, n_b, i).module)

    def test_zero_module_is_torsion(self, ring_a, pa):
        assert is_torsion(minimize(cyclic(ring_a, (pa("1"),))))

    # (variables, equations, factors of a principal equation or None)
    SWEEP_RINGS = [
        ("xyzw", ["x*y"], None),
        ("xyzw", ["x*y", "z*w"], None),
        ("xyz", ["x^2 - y^2"], ["x - y", "x + y"]),
        ("xy", ["x*y"], None),
        ("xyzw", ["x*y - z*w"], ["x*y - z*w"]),
    ]
    SWEEP_IDEALS = {
        "xy": [["x"], ["y"], ["x", "y"], ["x^2"], ["x + y"], ["x^2", "y"],
               ["x*y"], ["x - y"], ["y^2"], ["x^2", "x*y"], ["x^2 + y^2"]],
        "xyz": [["x"], ["y"], ["z"], ["x - y"], ["x + y"], ["x", "z"],
                ["x", "y"], ["z^2"], ["x + z"], ["x", "y", "z"], ["x^2", "z"]],
        "xyzw": [["x"], ["y"], ["z"], ["x", "y"], ["x", "z"], ["x + z"],
                 ["z + w"], ["x", "y", "z", "w"], ["x^2"], ["x", "z", "w"],
                 ["y", "w"]],
    }

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF(32003)"])
    @pytest.mark.parametrize("variables, equations, factors", SWEEP_RINGS,
                             ids=[f"{v}/({','.join(e)})".replace(" ", "")
                                  for v, e, _ in SWEEP_RINGS])
    def test_agrees_with_the_fitting_reference(self, field, variables,
                                               equations, factors):
        """Eleven cyclic R/I and their Tor_1 against R/(x), plus R and
        R/(1), on each ring: the engine's answer is the older Fitt_0
        test's, and the sweep meets both answers."""
        ring = make_ring(field, list(variables), equations)
        p = lambda t: parse_poly(t, ring.sig)
        if factors:
            ring.minimal_primes(factors=[p(f) for f in factors])
        caps = Caps()
        rx = cyclic(ring, (p("x"),))
        modules = [free_module(ring, (0,)), cyclic(ring, (p("1"),))]
        for gens in self.SWEEP_IDEALS[variables]:
            m = cyclic(ring, tuple(p(g) for g in gens))
            modules += [m, tor(m, rx, 1, caps).module]
        answers = [is_torsion(t, caps) for t in modules]
        assert answers == [is_torsion_reference(t, caps) for t in modules]
        assert set(answers) == {True, False}


class TestDepthFormula:
    def test_main_fixture(self, m_a, n_a):
        rep = depth_formula_check(m_a, n_a)
        assert rep.holds is True
        assert (rep.depth_left, rep.depth_right) == (2, 3)
        assert (rep.depth_ring, rep.depth_tensor) == (3, 2)

    def test_with_free_module_trivial(self, ring_a, n_a):
        rep = depth_formula_check(free_module(ring_a, (0,)), n_a)
        assert rep.holds is True

    def test_untested_when_tor_does_not_vanish(self, m_b, n_b):
        rep = depth_formula_check(m_b, n_b)
        assert rep.holds is None
        assert not rep.vanishing.all_zero
        assert "untested" in rep.summary()


class TestSpecInvariants:
    def test_hilbert_additivity_along_syzygy_sequence(self, ring_a, m_a, n_a,
                                                      tensor_a):
        # 0 -> Omega M -> F_0 -> M -> 0 is exact, so series add up
        from reflextor.modules import free_module, syzygy

        for m in (m_a, n_a, tensor_a):
            mm = minimize(m)
            f0 = free_module(ring_a, mm.gen_degrees)
            omega = syzygy(m, 1)
            assert omega.hilbert_series() + mm.hilbert_series() == \
                f0.hilbert_series()

    def test_depth_bounded_by_support_dimension(self, ring_a, m_a, n_a,
                                                tensor_a):
        # depth(M) <= dim(M) = dim R - height(rad Fitt_0), on the fixtures
        from reflextor.groebner import Ideal, krull_dimension
        from reflextor.modules import fitting_ideal

        k = ring_a.residue_field_module()
        for m in (m_a, n_a, tensor_a, k):
            fitt0 = fitting_ideal(minimize(m), 0)
            support = Ideal(
                ring_a.sig, ring_a.ideal.generators + fitt0.generators
            )
            if not support.is_proper():
                continue
            dim_m = krull_dimension(support)
            assert depth(m) <= dim_m

    def test_periodicity_never_fires_for_finite_pd(self, ring_a, m_a):
        res = free_resolution(m_a, 6)
        assert res.complete
        assert res.periodicity_onset() is None


class TestPeriodicityCertificate:
    def test_periodicity_certifies_tail(self, ring_a, pa, n_a):
        # a module with infinite pd but vanishing Tor against a suitable
        # partner: N_A against the cyclic module on (y,z,w)
        other = cyclic(ring_a, RIdeal(ring_a, (pa("z"),), "verified"))
        v = tor_vanishing(n_a, other, 4)
        assert v.all_zero
        assert v.certificate in ("periodicity", "finite_pd")
        if v.certificate == "periodicity":
            assert v.periodicity_onset is not None
            assert v.window >= v.periodicity_onset + 1

    def test_free_or_zero_partner_certifies_the_tail(self):
        # k over xy - zw has onset 4, past a window of 2; Tor against a
        # free or zero N vanishes at every index, Tor being symmetric
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y - z*w"])
        k = ring.residue_field_module()
        for partner in (PresentedModule(ring, (), ()),
                        cyclic(ring, (parse_poly("1", ring.sig),)),
                        free_module(ring, (0, 1))):
            v = tor_vanishing(k, partner, 2)
            assert v.all_zero and v.certificate == "finite_pd"

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
    def test_periodicity_certifies_off_hypersurfaces(self, field):
        # R = k[x]/(x^2) (x) k[y,z]/(y^2): R/(x) resolves by x, x, ... and
        # Tor_i(R/(x), R/(y)) = 0 for every i >= 1
        ring = make_ring(field, ["x", "y", "z"], ["x^2", "y^2"])
        x, y = (cyclic(ring, (parse_poly(v, ring.sig),)) for v in "xy")
        v = tor_vanishing(x, y, 3)
        assert v.all_zero
        assert (v.certificate, v.periodicity_onset) == ("periodicity", 1)
        assert str(pd(x)) == "AboveCap (2-periodic from step 1)"


def _tate_degrees(top):
    """Internal degrees of b_i(k), i <= top, over a 5-variable complete
    intersection with relations of degrees 2, 2, 3: the s^i part of Tate's
    (1 + st)^5 / ((1 - s^2 t^2)^2 (1 - s^2 t^3)), as sorted lists."""

    def times(series, factor):  # truncated past s^top
        out = {}
        for (a, b), c in series.items():
            for (a2, b2), c2 in factor.items():
                if a + a2 <= top:
                    out[a + a2, b + b2] = out.get((a + a2, b + b2), 0) + c * c2
        return out

    series = {(0, 0): 1}
    for _ in range(5):
        series = times(series, {(0, 0): 1, (1, 1): 1})
    for d in (2, 2, 3):  # 1/(1 - s^2 t^d) = sum_j s^{2j} t^{dj}
        series = times(series, {(2 * j, d * j): 1 for j in range(top // 2 + 1)})
    return [
        sorted(b for (a, b), c in series.items() if a == i for _ in range(c))
        for i in range(top + 1)
    ]


class TestResidueFieldOverCompleteIntersection:
    def test_tor_and_ext_of_k_follow_tate_series(self, ring_ci):
        expected = _tate_degrees(2)
        assert [len(e) for e in expected] == [1, 5, 13]
        assert expected[2] == [2] * 12 + [3]
        k = ring_ci.residue_field_module()
        for i, degs in enumerate(expected):
            t, e = tor(k, k, i), ext(k, k, i)
            assert not t.is_zero and not e.is_zero
            assert sorted(t.module.gen_degrees) == degs
            assert sorted(e.module.gen_degrees) == sorted(-d for d in degs)
