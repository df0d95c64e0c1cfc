"""Serre-condition verdicts, the minimal-prime graph, and rank propagation."""

import pytest

from reflextor.graphs import HHGraph, graph_rank, hh_graph
from reflextor.modules import free_module
from reflextor.serre import is_reflexive, n_torsion_free


class TestNTorsionFree:
    def test_tensor_is_two_torsion_free(self, tensor_a):
        rep = n_torsion_free(tensor_a, 2)
        assert rep.verdicts == (True, True)
        assert rep.interpretation == "serre-condition"

    def test_main_fixture_splits_at_two(self, m_a):
        rep = n_torsion_free(m_a, 2)
        assert rep.verdicts == (True, False)

    def test_free_module_all_levels(self, ring_a):
        rep = n_torsion_free(free_module(ring_a, (0, 1)), 3)
        assert rep.verdicts == (True, True, True)

    def test_small_partner_fails_level_one(self, n_b):
        assert n_torsion_free(n_b, 1).verdicts == (False,)

    def test_monotone_prefix(self, m_a):
        # deeper requests extend the vector without flipping earlier entries
        two = n_torsion_free(m_a, 2).verdicts
        three = n_torsion_free(m_a, 3).verdicts
        assert three[:2] == two

    def test_level_must_be_positive(self, m_a):
        with pytest.raises(ValueError):
            n_torsion_free(m_a, 0)


class TestReflexivity:
    def test_fixture_verdicts(self, m_a, n_a, tensor_a):
        assert not is_reflexive(m_a).reflexive
        assert is_reflexive(n_a).reflexive
        assert is_reflexive(tensor_a).reflexive

    def test_free_is_reflexive(self, ring_a):
        assert is_reflexive(free_module(ring_a, (0,))).reflexive

    def test_report_carries_both_certificates(self, m_a):
        rep = is_reflexive(m_a)
        assert rep.torsionless
        assert rep.ext_verdicts == (True, False)
        assert rep.biduality_kernel_generators == 0
        assert rep.biduality_cokernel_generators > 0


class TestConnectivity:
    """`is_connected` on graphs built by hand: it reads only the vertex
    count and the edges."""

    @pytest.mark.parametrize("vertices, edges, connected", [
        (3, ((0, 1), (1, 2)), True),
        (3, ((1, 2), (0, 1)), True),
        (3, ((0, 1),), False),
        (4, ((0, 1), (2, 3)), False),
        (1, (), True),
    ], ids=["path", "path-reversed", "isolated-vertex", "two-components",
            "single-vertex"])
    def test_is_connected(self, vertices, edges, connected):
        graph = HHGraph(None, tuple(f"p{k}" for k in range(vertices)), edges)
        assert graph.is_connected() is connected


class TestGraph:
    def test_hypersurface_graph_connected(self, ring_a):
        g = hh_graph(ring_a)
        assert [str(p) for p in g.vertices] == ["(x)", "(y)"]
        assert g.edges == ((0, 1),)
        assert g.heights[(0, 1)] == 1
        assert g.is_connected()

    def test_two_planes_disconnected(self, ring_c):
        g = hh_graph(ring_c)
        assert len(g.vertices) == 2
        assert g.edges == ()
        assert g.heights[(0, 1)] == 2
        assert not g.is_connected()

    def test_domain_single_vertex(self, ring_regular):
        g = hh_graph(ring_regular)
        assert len(g.vertices) == 1
        assert g.is_connected()

    def test_edge_has_height_one_witness(self, ring_a):
        g = hh_graph(ring_a)
        witness = g.witnesses[(0, 1)]
        assert {str(p) for p in witness.generators} == {"x", "y"}
        assert ring_a.height(witness) <= 1

    def test_cm_fixtures_connected(self, ring_a, ring_regular, ring_c):
        # the empirical direction: a Cohen-Macaulay certificate forces a
        # connected graph; the disconnected fixture has no certificate
        for ring in (ring_a, ring_regular):
            if ring.is_cohen_macaulay():
                assert hh_graph(ring).is_connected()
        assert not ring_c.is_cohen_macaulay()
        assert ring_c.depth() == 1


class TestGraphRank:
    def test_main_fixture_has_rank_two(self, m_a):
        result = graph_rank(m_a)
        assert result.kind == "rank" and result.rank == 2
        assert result.vertex_ranks == (2, 2)

    def test_partner_has_no_rank(self, n_a):
        result = graph_rank(n_a)
        assert result.kind == "no_rank"
        assert result.vertex_ranks == (1, 0)
        assert "height-one" in result.witness

    def test_free_modules(self, ring_a):
        result = graph_rank(free_module(ring_a, (0, 1, 2)))
        assert result.kind == "rank" and result.rank == 3

    def test_random_finite_pd_cokernels_have_consistent_rank(self, ring_a, pa):
        # finite-pd modules have equal vertex ranks on the connected graph
        from reflextor.modules import module_from_rows

        m = module_from_rows(ring_a, [[pa("z")], [pa("w")]][:1], (0,))
        result = graph_rank(m)
        assert result.kind == "rank"
        vertex_set = set(result.vertex_ranks)
        assert len(vertex_set) == 1
