"""Each pair queue remembers a term's first reducer for the life of its run.

`_reduce_full` reads the memo `first` before scanning a position list and
stores the entry a scan finds; a term found irreducible is not stored.
Position lists only grow by appending, so while an index lives the first
divisor of a term, in basis order, never changes.  These tests check, at
every `drain` and every scan step (`IncrementalSpan.add`), that each memo
entry of the queue is the entry `oracles.first_reducer_reference` finds by
a plain scan of the index as it stands then; over QQ and GF(32003), ranks
one and three, with and without an ideal block, in a graded scan and in a
tailed `Span` run, whose syzygies also match the older route that
interreduces the whole augmented basis.
"""

import random

import pytest

from reflextor.caps import Caps
from reflextor.fields import GF, QQ
from reflextor.groebner import (
    FreeVector, Ideal, IncrementalSpan, Span, _PairQueue, _as_terms, _by_position,
    _reduce_full,
)
from reflextor.hilbert import vector_degree
from reflextor.parse import parse_poly
from reflextor.poly import Poly, RingSignature

from oracles import all_monomials, first_reducer_reference, span_syzygies_full_reference

FIELDS = {"QQ": QQ, "GF(32003)": GF(32003)}
COORD_DEGREES = {1: (0,), 3: (0, 1, 1)}


def check_memo(queue):
    for t, entry in queue.first.items():
        assert entry is first_reducer_reference(queue.index, t, queue.pk)


@pytest.fixture
def memo_sizes(monkeypatch):
    """Check every queue's memo before and after each `drain` and after
    each scan step; the list collects the memo sizes seen."""
    sizes = []
    drain, add = _PairQueue.drain, IncrementalSpan.add

    def checked_drain(self, bound=None):
        check_memo(self)
        drain(self, bound)
        check_memo(self)
        sizes.append(len(self.first))

    def checked_add(self, v, degree):
        grew = add(self, v, degree)
        check_memo(self._queue)
        sizes.append(len(self._queue.first))
        return grew

    monkeypatch.setattr(_PairQueue, "drain", checked_drain)
    monkeypatch.setattr(IncrementalSpan, "add", checked_add)
    return sizes


def _setting(fld, rank, with_ideal):
    """A signature, the ideal (x*y - z^2) or none, and seeded homogeneous
    vectors of S^rank with two combinations of earlier ones."""
    sig = RingSignature(fld, ("x", "y", "z"))
    ideal = Ideal(sig, (parse_poly("x*y - z^2", sig),)) if with_ideal else None
    rng = random.Random(20261021 + rank)
    degs = COORD_DEGREES[rank]

    def form(d):
        monos = all_monomials(sig.nvars, d)
        picks = rng.sample(monos, min(3, len(monos)))
        return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 7)) for m in picks})

    def vector(d):
        return FreeVector(sig, tuple(form(d - cd) for cd in degs))

    vectors = [vector(d) for d in (1, 2, 2, 2, 3, 3)]
    x, z = (Poly.variable(sig, n) for n in ("x", "z"))
    vectors.append(vectors[1].poly_mul(x) + vectors[4])
    vectors.append(vectors[0].poly_mul(x * z) - vectors[5])
    return sig, ideal, vectors, degs


@pytest.mark.parametrize("with_ideal", [False, True], ids=["plain", "ideal"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("field", FIELDS)
def test_graded_scan_memo_matches_a_plain_scan(field, rank, with_ideal, memo_sizes):
    sig, ideal, vectors, degs = _setting(FIELDS[field], rank, with_ideal)
    span = IncrementalSpan(sig, rank, (), Caps(), ideal)
    offered = sorted(vectors, key=lambda v: vector_degree(v, degs))
    grew = [span.add(v, vector_degree(v, degs)) for v in offered]
    assert any(grew) and not all(grew)  # the combinations are dropped
    assert all(span.contains(v) for v in vectors)
    assert max(memo_sizes) > 0


@pytest.mark.parametrize("with_ideal", [False, True], ids=["plain", "ideal"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("field", FIELDS)
def test_tailed_run_memo_matches_a_plain_scan(field, rank, with_ideal, memo_sizes):
    sig, ideal, vectors, _ = _setting(FIELDS[field], rank, with_ideal)
    relations = vectors[:1]
    caps, ref_caps = Caps(), Caps()
    got = Span(sig, rank, vectors[1:], caps,
               IncrementalSpan(sig, rank, relations, caps, ideal)).syzygies(ideal, caps)
    assert max(memo_sizes) > 0
    want = span_syzygies_full_reference(
        sig, rank, vectors[1:], ref_caps,
        IncrementalSpan(sig, rank, relations, ref_caps, ideal), ideal)
    assert got and got == want
    assert caps._pairs_used == ref_caps._pairs_used


@pytest.mark.parametrize("field", FIELDS)
def test_an_irreducible_term_meets_an_entry_appended_later(field):
    """A memo kept across an append: a term irreducible before the append
    is reduced by the new entry, as with a fresh memo."""
    fld = FIELDS[field]
    sig = RingSignature(fld, ("x", "y", "z"))
    pk = sig.packing
    ideal = Ideal(sig, (parse_poly("x*y - z^2", sig),))
    index = _by_position(ideal.gb()._entries)
    f = parse_poly("x^2*z + y*z^2 + x*y", sig)

    def reduce(memo):
        return _reduce_full(_as_terms(f, 1, fld)[1], index, memo, pk, fld)

    memo = {}
    before = reduce(memo)
    assert memo and all(first_reducer_reference(index, t, pk) is e for t, e in memo.items())
    x2 = Ideal(sig, (parse_poly("x^2", sig),)).gb()._entries[0]
    assert any(pk.divides(x2[0], t) for t in before[0])
    index[0].append(x2)
    after = reduce(memo)
    assert after == reduce({}) and after != before
    assert all(first_reducer_reference(index, t, pk) is e for t, e in memo.items())
