"""The verdict memo on `QuotientRing`: one computation per presentation,
with each hit charging the pairs and cancel polls of a recomputation, so
answers never depend on what ran before."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

import reflextor.serre as serre
from reflextor import QQ, make_ring
from reflextor.caps import CapExceeded, Caps, ComputationCancelled
from reflextor.modules import cyclic, transpose
from reflextor.parse import parse_poly
from reflextor.reports import run_task
from reflextor.rings import RIdeal
from reflextor.serre import is_reflexive, n_torsion_free
from reflextor.session import load_session

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "scripts" / "sessions" / "hypersurface_xy.json"


def fresh_m():
    """M = Tr(R/(y, z, w)) over a new Q[x,y,z,w]/(xy): its own empty memo."""
    ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
    gens = tuple(parse_poly(s, ring.sig) for s in ("y", "z", "w"))
    return transpose(cyclic(ring, RIdeal(ring, gens, prime_status="verified")))


def count_biduality(monkeypatch):
    """Record each `serre.biduality` call: the probe needs a non-reflexive
    module, as `fresh_m` is, since a reflexive one builds no biduality."""
    calls = []
    inner = serre.biduality

    def counted(m, caps=None):
        calls.append(m)
        return inner(m, caps)

    monkeypatch.setattr(serre, "biduality", counted)
    return calls


VERDICTS = {
    "reflexive": lambda m, caps: is_reflexive(m, caps),
    "ntf": lambda m, caps: n_torsion_free(m, 2, caps),
}


@pytest.mark.parametrize("kind", VERDICTS)
def test_hit_returns_same_report_and_charges_same_pairs(kind):
    verdict = VERDICTS[kind]
    m = fresh_m()
    miss_caps, hit_caps = Caps(), Caps()
    report = verdict(m, miss_caps)
    assert miss_caps._pairs_used > 0
    assert verdict(m, hit_caps) is report
    assert hit_caps._pairs_used == miss_caps._pairs_used


def test_equal_presentation_on_another_object_hits(monkeypatch):
    m = fresh_m()
    first = is_reflexive(m)
    calls = count_biduality(monkeypatch)
    twin = transpose(cyclic(m.ring, RIdeal(m.ring, tuple(
        parse_poly(s, m.ring.sig) for s in ("y", "z", "w")), prime_status="verified")))
    assert twin is not m
    assert is_reflexive(twin) is first
    assert calls == []


def test_hit_under_small_pair_cap_raises_as_a_fresh_ring():
    m = fresh_m()
    probe = Caps()
    is_reflexive(m, probe)
    cap = probe._pairs_used - 1
    with pytest.raises(CapExceeded) as fresh_error:
        is_reflexive(fresh_m(), Caps(max_pairs=cap))
    with pytest.raises(CapExceeded) as hit_error:
        is_reflexive(m, Caps(max_pairs=cap))
    assert str(hit_error.value) == str(fresh_error.value) == f"pair cap exceeded ({cap})"


def test_smaller_degree_cap_misses_and_raises_as_a_fresh_ring(monkeypatch):
    m = fresh_m()
    degrees = []
    tick = Caps.tick

    def logged(caps, degree=0):
        degrees.append(degree)
        tick(caps, degree)

    monkeypatch.setattr(Caps, "tick", logged)
    is_reflexive(m, Caps())
    monkeypatch.setattr(Caps, "tick", tick)
    cap = max(degrees) - 1
    with pytest.raises(CapExceeded) as fresh_error:
        is_reflexive(fresh_m(), Caps(max_degree=cap))
    with pytest.raises(CapExceeded) as hit_error:
        is_reflexive(m, Caps(max_degree=cap))
    assert str(hit_error.value) == str(fresh_error.value)


def test_hit_polls_the_cancel():
    m = fresh_m()
    report = is_reflexive(m, Caps())
    polls = []

    def cancel():
        polls.append(1)
        return len(polls) > 3

    with pytest.raises(ComputationCancelled):
        is_reflexive(m, Caps(cancel=cancel))
    assert len(polls) == 4
    assert is_reflexive(m, Caps()) is report


def test_failed_run_leaves_no_entry(monkeypatch):
    m = fresh_m()
    with pytest.raises(CapExceeded):
        is_reflexive(m, Caps(max_pairs=1))
    calls = count_biduality(monkeypatch)
    is_reflexive(m, Caps())
    assert len(calls) == 1


def test_smaller_resolution_cap_misses(monkeypatch):
    m = fresh_m()
    calls = count_biduality(monkeypatch)
    first = is_reflexive(m, Caps())
    assert is_reflexive(m, Caps()) is first
    assert len(calls) == 1
    assert is_reflexive(m, Caps(resolution_length=7)) == first
    assert len(calls) == 2


def test_equal_ring_that_is_another_object_starts_empty(monkeypatch):
    m = fresh_m()
    is_reflexive(m)
    other = fresh_m()
    assert other.ring == m.ring and other.ring is not m.ring
    assert other.ring._caches == {}
    calls = count_biduality(monkeypatch)
    is_reflexive(other)
    assert len(calls) == 1


def test_reports_are_frozen():
    report = is_reflexive(fresh_m())
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.reflexive = not report.reflexive
    with pytest.raises(dataclasses.FrozenInstanceError):
        n_torsion_free(fresh_m(), 1).verdicts = ()


def test_ideal_basis_hit_charges_its_pairs_once_per_run():
    m = fresh_m()
    ring = m.ring
    prime = RIdeal(ring, tuple(parse_poly(s, ring.sig) for s in ("x", "z")),
                   prime_status="verified")
    miss_caps, hit_caps = Caps(), Caps()
    basis = prime.lift_gb(miss_caps)
    assert prime.lift_gb(miss_caps) is basis
    # a later run computes its own basis, equal and charged in full
    assert prime.lift_gb(hit_caps) == basis
    assert hit_caps._pairs_used == miss_caps._pairs_used > 0
    assert prime.is_proper(hit_caps)
    assert hit_caps._pairs_used == miss_caps._pairs_used


def test_verdicts_use_no_kept_answer_charged_once_per_run():
    """A verdict's computation may use no `once` entry of the run's store
    that outlives it (a session module's resolution, an ideal basis): its
    pairs would then depend on whether the run had built that entry, and a
    run could pay for it twice or not at all."""
    session = load_session(json.loads(FIXTURE.read_text(encoding="utf-8")), {})
    caps = Caps()
    for m in session.modules.values():
        is_reflexive(m, caps)
        n_torsion_free(m, 1, caps)
    assert any(("resolution",) in store for _, store in caps._memo.values())
    assert not {id(m) for m in session.modules.values()} & caps._memo.keys()
    assert [key for _, store in caps._memo.values() for key in store
            if key[0] == "rideal_gb"] == []


@pytest.mark.parametrize("cap", [10, 140, 230, 600, None])
def test_memo_does_not_change_task_answers(cap):
    """The fixture's tasks on one session answer as on a session whose memo
    is emptied before every task."""
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    shared = load_session(document, {"pairs": cap})
    cleared = load_session(document, {"pairs": cap})
    for i, task in enumerate(document["tasks"]):
        cleared.ring._caches.clear()
        assert run_task(shared, task, i) == run_task(cleared, task, i), (cap, i)


def test_order_probe_reports_no_order_dependence():
    spec = importlib.util.spec_from_file_location(
        "order_probe", ROOT / "scripts" / "order_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    tasks = document["tasks"]
    # hitting a cap is never a wrong answer: a task that finishes under a
    # cap answers as it does with none
    uncapped = probe.answers(document, None, tasks)
    finished = set()
    for cap in (10, 30, 120, 140, 230):
        in_order = probe.answers(document, cap, tasks)
        alone = [probe.answers(document, cap, [t])[0] for t in tasks]
        assert in_order == alone, cap
        for got, want in zip(in_order, uncapped):
            finished.add(probe.finished(got))
            assert got == want or not probe.finished(got), cap
    assert finished == {True, False}

