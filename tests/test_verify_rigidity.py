"""Verification pipelines and the rigidity falsification search."""

import pytest

from oracles import rigidity_torsion_entry_reference
from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps
from reflextor.homology import tor, tor_vanishing
from reflextor.modules import cyclic, free_module
from reflextor.parse import parse_poly
from reflextor.rigidity import rigidity_search
from reflextor.verify import (
    LedgerEntry,
    RigidityAssertion,
    TheoremReport,
    verify_rigidity_vanishing,
    verify_rigidity_vanishing_strong,
    verify_second_rigidity,
    verify_strong_second_rigidity,
)


class TestSecondRigidity:
    def test_main_fixture_consistent(self, m_a, n_a):
        rep = verify_second_rigidity(m_a, n_a)
        assert rep.verdict == "consistent"
        assert rep.hypothesis("hypersurface").status == "verified"
        assert rep.hypothesis("module-has-rank").status == "verified"
        assert rep.hypothesis("tensor-reflexive").status == "verified"
        assert rep.conclusion("partner-reflexive").status == "verified"
        assert rep.conclusion("tor-vanishing").status == "verified"

    def test_small_fixture_rank_hypothesis_fails(self, m_b, n_b):
        rep = verify_second_rigidity(m_b, n_b)
        assert rep.hypothesis("module-has-rank").status == "failed"
        assert rep.verdict != "counterexample-candidate"

    def test_free_pair_trivially_consistent(self, ring_a, n_a):
        rep = verify_second_rigidity(free_module(ring_a, (0,)), n_a)
        assert rep.verdict == "consistent"


class TestStrongSecondRigidity:
    def test_main_fixture_blocked_at_height_one(self, m_a, n_a):
        rep = verify_strong_second_rigidity(m_a, n_a)
        entry = rep.hypothesis("locally-free-height-one")
        assert entry.status == "failed"
        assert "(x, y)" in entry.detail
        assert rep.conclusion("left-reflexive").status == "failed"
        assert rep.verdict == "consistent"  # failure explained by the hypothesis

    def test_swapped_pair_fails_finite_pd(self, ring_a, pa, n_a):
        from reflextor.rings import RIdeal

        other = cyclic(ring_a, RIdeal(ring_a, (pa("y"),), "verified"))
        rep = verify_strong_second_rigidity(n_a, other)
        assert rep.hypothesis("finite-projective-dimension").status == "unknown"

    def test_free_pair(self, ring_a):
        f = free_module(ring_a, (0,))
        rep = verify_strong_second_rigidity(f, f)
        assert rep.verdict == "consistent"


class TestRigidityVanishing:
    def test_main_fixture(self, m_a, n_a):
        rep = verify_rigidity_vanishing(
            m_a, n_a, 2, RigidityAssertion("finite-pd-hypersurface")
        )
        assert rep.verdict == "consistent"
        assert rep.hypothesis("tor-rigidity").status == "asserted"
        assert rep.hypothesis("finite-ci-dimension").status == "verified"
        assert rep.hypothesis("tensor-n-torsion-free").status == "verified"
        assert rep.conclusion("partner-n-torsion-free").status == "verified"

    def test_small_fixture_hypothesis_and_conclusion_fail(self, m_b, n_b):
        rep = verify_rigidity_vanishing(m_b, n_b, 1, None)
        assert rep.hypothesis("tor-rigidity").status == "unknown"
        assert rep.conclusion("tor-vanishing").status == "failed"
        assert rep.conclusion("partner-n-torsion-free").status == "failed"
        assert rep.verdict != "counterexample-candidate"

    def test_rigidity_class_precondition_checked(self, ring_c):
        m = free_module(ring_c, (0,))
        rep = verify_rigidity_vanishing(
            m, m, 1, RigidityAssertion("finite-pd-hypersurface")
        )
        assert rep.hypothesis("tor-rigidity").status == "failed"

    def test_free_left_factor_consistent(self, ring_a, n_a):
        rep = verify_rigidity_vanishing(
            free_module(ring_a, (0,)), n_a, 1,
            RigidityAssertion("finite-pd-hypersurface"),
        )
        assert rep.verdict == "consistent"


class TestTorsionTail:
    """The `tor-eventually-torsion` entry of thm3.1 against the older
    torsion loop and status rule of `rigidity_torsion_entry_reference`."""

    # (variables, equations, factors of a principal equation or None,
    #  the cyclic R/I whose every ordered pair is checked)
    SWEEP = [
        ("xyzw", ["x*y"], None, [["x"], ["z"], ["x", "z"], ["x^2"]]),
        ("xyzw", ["x*y", "z*w"], None, [["x"], ["z"], ["x", "z"], ["y", "w"]]),
        ("xyz", ["x^2 - y^2"], ["x - y", "x + y"],
         [["x - y"], ["z"], ["x", "y"], ["x", "z"]]),
        ("xy", ["x*y"], None, [["x"], ["y"], ["x^2"], ["x", "y"]]),
        ("xyzw", ["x*y - z*w"], ["x*y - z*w"],
         [["x"], ["x", "z"], ["z + w"], ["x", "y"]]),
        # Tor over a reduced ring is torsion; only here can the entry fail
        ("xy", ["x^2"], None, [["x"], ["y"], ["x + y"], ["x", "y"]]),
    ]
    WINDOW = 3

    @staticmethod
    def _entry_agrees(m, n, window, caps):
        """The engine's entry and verdict against the reference's; the
        tail certificate the status reads."""
        rep = verify_rigidity_vanishing(m, n, 1, RigidityAssertion("asserted"),
                                        caps, window)
        entry = rep.hypothesis("tor-eventually-torsion")
        status, detail = rigidity_torsion_entry_reference(m, n, window, caps)
        v = tor_vanishing(m, n, window, caps)
        if "failed" in (entry.status, status):
            assert (entry.status, entry.detail) == (status, detail)
        else:
            assert (entry.status == "verified") == v.tail_certified
            named = (f"tail certified by {v.certificate}" if v.tail_certified
                     else "tail asserted (window only)")
            assert entry.detail == f"torsion for i = 1..{window}; {named}"
        reference = TheoremReport(
            rep.pipeline,
            [e if e is not entry else LedgerEntry(e.name, status, detail)
             for e in rep.hypotheses],
            rep.conclusions,
        )
        assert rep.verdict == reference.seal().verdict
        return entry.status, v.certificate

    @pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "GF(32003)"])
    def test_agrees_with_the_reference(self, field):
        tally = set()
        for variables, equations, factors, ideals in self.SWEEP:
            ring = make_ring(field, list(variables), equations)
            p = lambda t: parse_poly(t, ring.sig)
            if factors:
                ring.minimal_primes(factors=[p(f) for f in factors])
            caps = Caps()
            mods = [cyclic(ring, tuple(p(g) for g in gens)) for gens in ideals]
            for m in mods:
                for n in mods:
                    tally.add(self._entry_agrees(m, n, self.WINDOW, caps))
        assert {status for status, _ in tally} == {"verified", "asserted", "failed"}

    @pytest.mark.parametrize("variables, equation, left, right, window, certificate", [
        ("xyzw", "x*y", "z", "z", 3, "finite_pd"),
        ("xy", "x*y", "x", "x^2", 3, "periodicity"),
        ("xy", "x*y", "x", "x", 1, "window_only"),
    ])
    def test_pinned_certificates(self, variables, equation, left, right, window,
                                 certificate):
        ring = make_ring(QQ, list(variables), [equation])
        p = lambda t: parse_poly(t, ring.sig)
        m, n = cyclic(ring, (p(left),)), cyclic(ring, (p(right),))
        status, read = self._entry_agrees(m, n, window, Caps())
        assert read == certificate
        assert status == ("asserted" if certificate == "window_only" else "verified")

    def test_one_tor_walk_and_no_module_below_first_nonzero(self, ring_b, pb,
                                                            m_b, monkeypatch):
        """R/(x) against R/(y): Tor_1 = 0 and Tor_2 != 0, so of i = 1..3
        only Tor_2 and Tor_3 are built for the torsion test."""
        from reflextor import verify

        walks, built = [], []

        def walk(*args):
            walks.append(tor_vanishing(*args))
            return walks[-1]

        def build(m, n, i, caps):
            built.append(i)
            return tor(m, n, i, caps)

        monkeypatch.setattr(verify, "tor_vanishing", walk)
        monkeypatch.setattr(verify, "tor", build)
        rep = verify_rigidity_vanishing(m_b, cyclic(ring_b, (pb("y"),)), 1,
                                        None, Caps(), 3)
        assert len(walks) == 1 and walks[0].first_nonzero == 2
        assert built == [2, 3]
        assert rep.hypothesis("tor-eventually-torsion").status == "verified"


class TestRigidityVanishingStrong:
    def test_main_fixture_blocked_at_height_one(self, m_a, n_a):
        rep = verify_rigidity_vanishing_strong(
            m_a, n_a, 2, RigidityAssertion("finite-pd-hypersurface")
        )
        assert rep.hypothesis("serre-s2").status == "verified"
        assert rep.hypothesis("locally-free-height-one").status == "failed"
        assert rep.conclusion("left-n-torsion-free").status == "failed"
        assert rep.verdict == "consistent"

    def test_two_planes_refused(self, ring_c):
        m = free_module(ring_c, (0,))
        rep = verify_rigidity_vanishing_strong(m, m, 1, None)
        assert rep.hypothesis("serre-s2").status == "unknown"
        assert any("refused" in note for note in rep.notes)
        assert rep.verdict == "inconclusive"

    def test_no_fixture_is_a_counterexample_candidate(self, m_a, n_a, m_b, n_b):
        reports = [
            verify_second_rigidity(m_a, n_a),
            verify_second_rigidity(m_b, n_b),
            verify_strong_second_rigidity(m_a, n_a),
            verify_rigidity_vanishing(
                m_a, n_a, 2, RigidityAssertion("finite-pd-hypersurface")
            ),
            verify_rigidity_vanishing(m_b, n_b, 1, None),
            verify_rigidity_vanishing_strong(
                m_a, n_a, 2, RigidityAssertion("finite-pd-hypersurface")
            ),
        ]
        assert all(r.verdict != "counterexample-candidate" for r in reports)


class TestRigiditySearch:
    def test_small_fixture_witness(self, ring_b, pb, m_b, n_b):
        catalog = [
            m_b,
            cyclic(ring_b, (pb("y"),)),
            n_b,
            cyclic(ring_b, (pb("y^2"),)),
            ring_b.residue_field_module(),
        ]
        violations = rigidity_search(ring_b, catalog, window=3)
        involving_m = [v for v in violations if 0 in (v.left, v.right)]
        assert involving_m, "expected a witness pair against R/(x)"
        v = involving_m[0]
        assert v.kind == "1-rigidity"
        assert v.tor_pattern[0] is True and v.tor_pattern[1] is False

    def test_regular_ring_is_clean(self, ring_regular):
        p = lambda s: parse_poly(s, ring_regular.sig)
        catalog = [
            cyclic(ring_regular, (p("x"),)),
            cyclic(ring_regular, (p("y"),)),
            cyclic(ring_regular, (p("x^2"),)),
            cyclic(ring_regular, (p("y^2"),)),
            cyclic(ring_regular, (p("x"), p("y"))),
        ]
        assert rigidity_search(ring_regular, catalog, window=3) == []

    def test_free_catalog_empty(self, ring_b):
        catalog = [free_module(ring_b, (0,)), free_module(ring_b, (1,))]
        assert rigidity_search(ring_b, catalog, window=3) == []

    def test_window_validation(self, ring_b, m_b):
        with pytest.raises(ValueError):
            rigidity_search(ring_b, [m_b], window=1)
