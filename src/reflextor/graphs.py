"""The graph on minimal primes with height-one adjacency, and rank spread.

Vertices are the minimal primes of the ring; two are joined when their
sum has height at most one.  When a module is free at every vertex with
one common rank, that number is its rank; a vertex where freeness fails,
or unequal ranks, yield the negative outcomes.
"""

from dataclasses import dataclass, field

from .caps import Caps, DEFAULT_CAPS
from .modules import PresentedModule, localized_rank
from .rings import QuotientRing


@dataclass
class HHGraph:
    ring: QuotientRing
    vertices: tuple                     # minimal primes
    edges: tuple                        # pairs (i, j), i < j
    heights: dict = field(default_factory=dict)     # (i, j) -> height(p_i + p_j)
    witnesses: dict = field(default_factory=dict)   # (i, j) -> height<=1 prime over the sum

    def is_connected(self) -> bool:
        """Grow the vertices reached from vertex 0 along the edges until
        the set stops growing; connected when it holds every vertex."""
        if len(self.vertices) <= 1:
            return True
        reached, size = {0}, 0
        while size < len(reached):
            size = len(reached)
            reached |= {k for i, j in self.edges
                        if i in reached or j in reached for k in (i, j)}
        return len(reached) == len(self.vertices)

    def describe(self):
        return {
            "vertices": [str(p) for p in self.vertices],
            "edges": [
                [str(self.vertices[i]), str(self.vertices[j])] for i, j in self.edges
            ],
            "heights": {
                f"{i},{j}": h for (i, j), h in sorted(self.heights.items())
            },
            "connected": self.is_connected(),
        }


def hh_graph(ring: QuotientRing, caps: Caps = None) -> HHGraph:
    """Vertices = minimal primes, edges where height(p + q) <= 1."""
    caps = caps or DEFAULT_CAPS.fresh()
    primes = ring.minimal_primes(caps=caps)
    edges = []
    heights = {}
    witnesses = {}
    for j in range(len(primes)):
        for i in range(j):
            h = ring.height(primes[i].sum(primes[j]), caps)
            heights[(i, j)] = h
            if h <= 1:
                edges.append((i, j))
                w = _height_one_witness(ring, primes[i], primes[j], caps)
                if w is not None:
                    witnesses[(i, j)] = w
    return HHGraph(ring, tuple(primes), tuple(edges), heights, witnesses)


def _height_one_witness(ring, p, q, caps):
    """A height<=1 prime containing p + q, found among monomial primes."""
    if not ring.is_monomial():
        return None
    s = p.sum(q)
    for cand in ring.monomial_primes_of_height_at_most(1, caps):
        if cand.contains_ideal(s, caps):
            return cand
    return None


class RankConsistencyError(RuntimeError):
    """Equal-rank propagation failed where theory forbids it; a bug trap."""


@dataclass
class GraphRankResult:
    kind: str                 # "rank" | "no_rank" | "unknown"
    rank: object = None
    vertex_ranks: tuple = ()
    witness: str = ""

    @property
    def has_rank(self):
        return self.kind == "rank"


def graph_rank(module: PresentedModule, graph: HHGraph = None,
               caps: Caps = None) -> GraphRankResult:
    """Local ranks at every vertex, merged into a single rank when equal.

    Unequal ranks at free vertices trigger a check of the module at the
    height-one witness primes on edges: failing there explains the spread
    (no rank); being free there as well contradicts rank propagation along
    a connected graph and raises loudly.
    """
    caps = caps or DEFAULT_CAPS.fresh()
    if graph is None:
        graph = hh_graph(module.ring, caps)
    locals_ = [localized_rank(module, p, caps) for p in graph.vertices]
    vertex_ranks = tuple(lr.rank for lr in locals_)
    for p, lr in zip(graph.vertices, locals_):
        if lr.kind == "unknown":
            return GraphRankResult("unknown", None, vertex_ranks,
                                   f"verdict unknown at {p}")
        if lr.kind == "not_free":
            return GraphRankResult(
                "no_rank", None, vertex_ranks, f"not free at {p}: {lr.witness}"
            )
    ranks = set(vertex_ranks)
    if len(ranks) <= 1:
        r = vertex_ranks[0] if vertex_ranks else 0
        return GraphRankResult("rank", r, vertex_ranks, "free of equal rank at all vertices")
    # unequal ranks at free vertices: look for the failing height-one prime
    for (i, j), witness in sorted(graph.witnesses.items()):
        lr = localized_rank(module, witness, caps)
        if lr.kind != "free":
            return GraphRankResult(
                "no_rank",
                None,
                vertex_ranks,
                f"unequal vertex ranks {vertex_ranks}; not free at the "
                f"height-one prime {witness}",
            )
    if graph.is_connected() and len(graph.witnesses) == len(graph.edges):
        raise RankConsistencyError(
            f"unequal ranks {vertex_ranks} on a connected graph with free "
            f"height-one localizations"
        )
    return GraphRankResult(
        "no_rank", None, vertex_ranks,
        f"unequal vertex ranks {vertex_ranks}; height-one freeness not settled"
    )
