"""Graded isomorphism search and permutation equivalence."""

import pytest

from reflextor.caps import ComputationCancelled
from reflextor.isomorphism import (
    find_graded_isomorphism,
    monomials_of_degree,
    standard_monomials,
)
from reflextor.modules import (
    cyclic,
    free_module,
    minimize,
    module_from_rows,
    syzygy,
    tensor,
)

from oracles import presentations_equivalent_up_to_permutation


class TestMonomialEnumeration:
    def test_counts(self):
        assert len(monomials_of_degree(3, 4)) == 15
        assert monomials_of_degree(2, 0) == [(0, 0)]
        assert monomials_of_degree(2, -1) == []

    def test_standard_monomials_drop_lead_multiples(self, ring_a):
        degree_two = standard_monomials(ring_a, 2)
        assert (1, 1, 0, 0) not in degree_two  # xy is the lead of the ideal
        assert (2, 0, 0, 0) in degree_two
        assert len(degree_two) == 9


class TestIsoSearch:
    def test_identity_case(self, m_a):
        iso = find_graded_isomorphism(m_a, m_a)
        assert iso is not None and iso.shift == 0

    def test_small_tensor_collapse(self, ring_b, m_b, n_b):
        t = minimize(tensor(m_b, n_b))
        iso = find_graded_isomorphism(t, m_b)
        assert iso is not None and iso.shift == 0

    def test_tensor_with_ring(self, ring_a, m_a):
        t = minimize(tensor(m_a, free_module(ring_a, (0,))))
        assert find_graded_isomorphism(t, m_a) is not None

    def test_second_syzygy_identification(self, ring_a, pa, tensor_a):
        rows = [[pa("x"), pa("0"), pa("0")],
                [pa("0"), pa("x"), pa("0")],
                [pa("0"), pa("0"), pa("x")],
                [pa("w"), pa("y"), pa("z")]]
        c = module_from_rows(ring_a, rows, (0, 0, 0, 0))
        omega2 = syzygy(c, 2)
        iso = find_graded_isomorphism(tensor_a, omega2)
        assert iso is not None
        assert iso.shift == 4

    def test_distinguishes_nonisomorphic(self, ring_a, pa, n_a):
        other = cyclic(ring_a, (pa("z"),))
        assert find_graded_isomorphism(n_a, other) is None

    def test_shift_detection(self, ring_a, n_a):
        from reflextor.isomorphism import shift_module

        lifted = shift_module(n_a, 3)
        iso = find_graded_isomorphism(n_a, lifted)
        assert iso is not None and iso.shift == 3


    def test_free_modules_need_no_condition(self, ring_a):
        # no source relations: every matrix of the right degrees is a map
        iso = find_graded_isomorphism(free_module(ring_a, (0, 1)),
                                      free_module(ring_a, (0, 1)))
        assert iso is not None and iso.shift == 0

    def test_cancellation_in_the_map_check_propagates(self, m_a, monkeypatch):
        import reflextor.isomorphism as iso_module

        def cancelled(*args, **kwargs):
            raise ComputationCancelled("computation cancelled by caller")

        monkeypatch.setattr(iso_module, "ModuleMap", cancelled)
        with pytest.raises(ComputationCancelled):
            find_graded_isomorphism(m_a, m_a)


class TestPermutationEquivalence:
    def test_displayed_tensor_matrix(self, ring_a, pa, tensor_a):
        displayed = module_from_rows(
            ring_a,
            [[pa("x"), pa("0"), pa("0"), pa("w")],
             [pa("0"), pa("x"), pa("0"), pa("y")],
             [pa("0"), pa("0"), pa("x"), pa("z")]],
            (-1, -1, -1),
        )
        assert presentations_equivalent_up_to_permutation(tensor_a, displayed)

    def test_scaling_allowed(self, ring_a, pa):
        a = module_from_rows(ring_a, [[pa("y")], [pa("z")]], (0, 0))
        b = module_from_rows(ring_a, [[pa("2*z")], [pa("2*y")]], (0, 0))
        assert presentations_equivalent_up_to_permutation(a, b)

    def test_shape_mismatch(self, ring_a, pa, m_a, n_a):
        assert not presentations_equivalent_up_to_permutation(m_a, n_a)

    def test_content_mismatch(self, ring_a, pa):
        a = module_from_rows(ring_a, [[pa("y")]], (0,))
        b = module_from_rows(ring_a, [[pa("z")]], (0,))
        assert not presentations_equivalent_up_to_permutation(a, b)
