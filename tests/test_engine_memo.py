"""The engine memo on a run's `Caps`: each relation span and syzygy run
computed once per run, each hit charging the pairs and cancel polls of a
recomputation, so no answer or pair count depends on it."""

import gc
import json
import weakref
from pathlib import Path

import pytest

import reflextor.groebner as groebner
from reflextor import QQ, make_ring
from reflextor.caps import DEFAULT_CAPS, CapExceeded, Caps, ComputationCancelled
from reflextor.groebner import FreeVector, Ideal, ideal_quotient, intersect_ideals
from reflextor.homology import free_resolution, resolution
from reflextor.modules import (
    minimal_generator_indices,
    ring_membership_span,
    syzygies_over_ring,
)
from reflextor.paper_suite import paper_suite
from reflextor.parse import parse_poly
from reflextor.reports import run_task
from reflextor.session import load_session

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "scripts" / "sessions" / "hypersurface_xy.json"
CAPS = [10, 30, 120, 140, 230, None]


def bypass_memo(monkeypatch):
    """Recompute every entry charged on a hit; `once` entries (resolutions,
    ideal bases) stay kept, as a run that holds them in a local would."""
    task_memo = Caps.task_memo

    def bypassed(self, owner, key, compute, once=False):
        if once:
            return task_memo(self, owner, key, compute, once)
        return compute()

    monkeypatch.setattr(Caps, "task_memo", bypassed)


def keep_task_caps(monkeypatch):
    """The `Caps` of every task run from now on, in order."""
    made = []
    fresh = Caps.fresh

    def kept(self):
        made.append(fresh(self))
        return made[-1]

    monkeypatch.setattr(Caps, "fresh", kept)
    return made


def fixture_answers(monkeypatch, cap):
    """Each fixture task's report and pairs charged, run in order on one
    session, after the load's outcome and pairs."""
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    try:
        session = load_session(document, {"pairs": cap})
    except CapExceeded as e:
        return [("load", str(e))]
    made = keep_task_caps(monkeypatch)
    out = [("load", session.caps._pairs_used)]
    for i, task in enumerate(document["tasks"]):
        report = run_task(session, task, i)
        out.append((report, made[-1]._pairs_used))
    return out


def suite_answer(cap):
    caps = Caps() if cap is None else Caps(max_pairs=cap)
    try:
        return paper_suite(caps), caps._pairs_used
    except CapExceeded as e:
        return str(e), caps._pairs_used


@pytest.mark.parametrize("cap", CAPS)
def test_fixture_answers_and_pairs_match_a_run_without_the_memo(monkeypatch, cap):
    with_memo = fixture_answers(monkeypatch, cap)
    monkeypatch.undo()
    bypass_memo(monkeypatch)
    assert fixture_answers(monkeypatch, cap) == with_memo


@pytest.mark.parametrize("cap", CAPS)
def test_paper_suite_answer_and_pairs_match_a_run_without_the_memo(monkeypatch, cap):
    with_memo = suite_answer(cap)
    bypass_memo(monkeypatch)
    assert suite_answer(cap) == with_memo


def fixture_ring():
    return make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])


def vectors(ring, rows):
    return [FreeVector(ring.sig, tuple(parse_poly(s, ring.sig) for s in row))
            for row in rows]


RELATIONS = [("x", "z"), ("w", "y")]
SYZYGY_INPUT = [("y", "0"), ("z", "w"), ("x*z", "y*w")]


def twice(caps):
    """One query made twice in one run: the second is a memo hit."""
    ring = fixture_ring()
    out = []
    for _ in range(2):
        modulo = ring_membership_span(ring, 2, vectors(ring, RELATIONS), caps)
        out.append(syzygies_over_ring(ring, 2, vectors(ring, SYZYGY_INPUT), caps,
                                      modulo=modulo))
    return out


def test_hit_returns_the_miss_answer_and_charges_its_pairs():
    caps = Caps()
    ring = fixture_ring()
    rels, vecs = vectors(ring, RELATIONS), vectors(ring, SYZYGY_INPUT)
    modulo = ring_membership_span(ring, 2, rels, caps)
    first = syzygies_over_ring(ring, 2, vecs, caps, modulo=modulo)
    miss = caps._pairs_used
    assert miss > 0 and first
    again = ring_membership_span(ring, 2, rels, caps)
    assert again is not modulo and again.caps is caps
    assert again._entries == modulo._entries
    assert syzygies_over_ring(ring, 2, vecs, caps, modulo=again) == first
    assert caps._pairs_used == 2 * miss
    stored = [entry[0] for _, store in caps._memo.values() for entry in store.values()]
    assert stored and all(getattr(v, "caps", None) is None for v in stored)


def test_hit_under_a_pair_cap_raises_as_a_recomputation(monkeypatch):
    bypass_memo(monkeypatch)
    probe = Caps()
    twice(probe)
    monkeypatch.undo()
    total = probe._pairs_used
    for cap in range(total // 2 - 1, total):
        outcomes = []
        for bypass in (False, True):
            if bypass:
                bypass_memo(monkeypatch)
            caps = Caps(max_pairs=cap)
            with pytest.raises(CapExceeded) as error:
                twice(caps)
            outcomes.append((str(error.value), caps._pairs_used))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1], cap


def test_hit_after_a_cancel_fires_raises_as_a_recomputation():
    fired = []
    caps = Caps(cancel=lambda: bool(fired))
    ring = fixture_ring()
    rels, vecs = vectors(ring, RELATIONS), vectors(ring, SYZYGY_INPUT)
    modulo = ring_membership_span(ring, 2, rels, caps)
    first = syzygies_over_ring(ring, 2, vecs, caps, modulo=modulo)
    fired.append(True)
    with pytest.raises(ComputationCancelled):
        ring_membership_span(ring, 2, rels, caps)
    with pytest.raises(ComputationCancelled):
        syzygies_over_ring(ring, 2, vecs, caps, modulo=modulo)
    fired.clear()
    assert syzygies_over_ring(ring, 2, vecs, caps, modulo=modulo) == first


def test_dropping_a_task_caps_frees_its_entries(monkeypatch):
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    session = load_session(document, {})
    made = keep_task_caps(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        run_task(session, document["tasks"][0], 0)
        caps = made.pop()
        spans = [entry[0] for _, store in caps._memo.values()
                 for key, entry in store.items() if key[0] == "span"]
        assert spans
        refs = [weakref.ref(caps)] + [weakref.ref(s) for s in spans]
        del caps, spans
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_resolution_lives_for_one_run():
    ring = fixture_ring()
    m = ring.residue_field_module()
    caps = Caps()
    res = resolution(m, caps)
    free_resolution(m, 3, caps)
    paid = caps._pairs_used
    assert paid > 0 and res.length_computed() >= 3
    # the same run gets the same object, and walking it again is free
    assert resolution(m, caps) is res
    free_resolution(m, 3, caps)
    assert caps._pairs_used == paid
    # a new run builds its own, charged in full
    again = Caps()
    assert resolution(m, again) is not res
    free_resolution(m, 3, again)
    assert again._pairs_used == paid
    gc.collect()
    gc.disable()
    try:
        refs = [weakref.ref(caps), weakref.ref(res)]
        del caps, res
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_default_caps_keep_no_entries():
    paper_suite()
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    session = load_session(document, {})
    for i, task in enumerate(document["tasks"]):
        run_task(session, task, i)
    assert DEFAULT_CAPS._memo == {}


def test_a_span_grown_by_a_scan_loses_its_key():
    caps = Caps()
    ring = fixture_ring()
    span = ring_membership_span(ring, 2, vectors(ring, RELATIONS), caps)
    assert span.memo_key == ("span", 2, tuple(vectors(ring, RELATIONS)))
    span.add(vectors(ring, [("y", "0")])[0], 1)
    assert span.memo_key is None
    before = {key for _, store in caps._memo.values() for key in store}
    syzygies_over_ring(ring, 2, vectors(ring, SYZYGY_INPUT), caps, modulo=span)
    after = {key for _, store in caps._memo.values() for key in store}
    assert after == before


def test_the_nakayama_copy_leaves_the_relation_span_keyed():
    caps = Caps()
    ring = fixture_ring()
    span = ring_membership_span(ring, 2, vectors(ring, RELATIONS), caps)
    key = span.memo_key
    kept = minimal_generator_indices(ring, 2, vectors(ring, SYZYGY_INPUT),
                                     [1, 1, 2], modulo=span, caps=caps)
    assert kept and span.memo_key == key


def test_ideal_spans_are_never_keyed(monkeypatch):
    seen = []

    class Recording(groebner.Span):
        def __init__(self, sig, rank, vecs, caps=None, modulo=None):
            seen.append(modulo.memo_key)
            super().__init__(sig, rank, vecs, caps, modulo)

    monkeypatch.setattr(groebner, "Span", Recording)
    ring = fixture_ring()
    poly = lambda s: parse_poly(s, ring.sig)
    caps = Caps()
    quotient = ideal_quotient(ring.ideal, Ideal(ring.sig, (poly("x"),)), caps)
    assert quotient.generators
    intersect_ideals(Ideal(ring.sig, (poly("x"),)), Ideal(ring.sig, (poly("y"),)), caps)
    assert seen == [None, None]
    assert caps._memo == {}
