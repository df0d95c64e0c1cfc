"""Serre-condition verdicts, the minimal-prime graph, and rank propagation."""

import pytest

from reflextor import GF, QQ, make_ring, serre
from reflextor.caps import Caps
from reflextor.graphs import HHGraph, graph_rank, hh_graph
from reflextor.modules import cyclic, free_module
from reflextor.parse import parse_poly
from reflextor.serre import is_reflexive, n_torsion_free

from oracles import height_one_witness_by_search

FIELDS = [QQ, GF(32003)]
FIELD_IDS = ["QQ", "GF32003"]


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

    def test_reflexive_module_builds_no_biduality(self, monkeypatch):
        # both Ext verdicts hold, so both counts are 0 with no map built;
        # a new ring, so no memo entry answers first
        def refuse(m, caps=None):
            raise AssertionError("biduality built for a reflexive module")

        monkeypatch.setattr(serre, "biduality", refuse)
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
        x = parse_poly("x", ring.sig)
        for m in (cyclic(ring, (x,)), free_module(ring, (0, 1))):
            rep = is_reflexive(m)
            assert rep.reflexive and rep.torsionless
            assert (rep.biduality_kernel_generators,
                    rep.biduality_cokernel_generators) == (0, 0)


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


# (variables, defining ideal, minimal prime candidates or None)
WITNESS_RINGS = [
    ("xyzw", ["x*y"], None),
    ("xyzw", ["x*y", "z*w"], None),
    ("xyz", ["x*y*z"], None),
    ("xyz", ["x*y", "x*z", "y*z"], None),
    ("xyzwv", ["x*y", "y*z", "z*w"], None),
    ("xyz", ["x^2*y"], None),
    ("xyzw", ["x*z", "x*w", "y*z", "y*w"], None),
    ("xyzw", ["x*y"], [["2*x"], ["y"]]),
]


class TestEdgeWitnesses:
    """Each edge's height-one prime against a search of every variable
    prime of height <= 1 for the first one over the edge's sum."""

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("variables, ideal, candidates", WITNESS_RINGS,
                             ids=["xy", "xy-zw", "xyz", "xy-xz-yz", "path-5",
                                  "x2y", "two-planes", "candidates"])
    def test_witnesses_match_the_search(self, fld, variables, ideal, candidates):
        ring = make_ring(fld, list(variables), ideal)
        if candidates is not None:
            ring.minimal_primes(candidates=[
                [parse_poly(t, ring.sig) for t in c] for c in candidates])
        g = hh_graph(ring, Caps())
        expected = {}
        for i, j in g.edges:
            w = height_one_witness_by_search(ring, g.vertices[i], g.vertices[j],
                                             Caps())
            if w is not None:
                expected[(i, j)] = (w.generators, w.prime_status)
        assert set(expected) == set(g.edges)
        got = {e: (w.generators, w.prime_status) for e, w in g.witnesses.items()}
        assert got == expected

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    def test_non_monomial_ring_has_no_witnesses(self, fld):
        ring = make_ring(fld, ["x", "y", "z"], ["x^2 - y^2"])
        ring.minimal_primes(factors=[parse_poly(t, ring.sig)
                                     for t in ("x - y", "x + y")])
        g = hh_graph(ring, Caps())
        assert g.edges == ((0, 1),)
        assert g.witnesses == {}


class TestFourVertexRank:
    """Q[x,y,z,w]/(xy, zw): vertices (x, z), (x, w), (y, z), (y, w), and
    unequal vertex ranks explained at the first edge prime where the
    module is not free."""

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("ideal, ranks, prime", [
        (["x"], (1, 1, 0, 0), "(x, y, z)"),
        (["x", "z"], (1, 0, 0, 0), "(x, z, w)"),
        (["y", "w"], (0, 0, 0, 1), "(x, y, w)"),
    ], ids=["x", "x-z", "y-w"])
    def test_no_rank_names_the_edge_prime(self, fld, ideal, ranks, prime):
        ring = make_ring(fld, ["x", "y", "z", "w"], ["x*y", "z*w"])
        g = hh_graph(ring, Caps())
        assert [str(p) for p in g.vertices] == [
            "(x, z)", "(x, w)", "(y, z)", "(y, w)"]
        m = cyclic(ring, tuple(parse_poly(t, ring.sig) for t in ideal))
        result = graph_rank(m, g, Caps())
        assert result.kind == "no_rank"
        assert result.vertex_ranks == ranks
        assert result.witness == (
            f"unequal vertex ranks {ranks}; not free at the height-one "
            f"prime {prime}")
