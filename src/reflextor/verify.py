"""Hypothesis/conclusion verification pipelines.

Each pipeline evaluates the checkable hypotheses and conclusions of one
of the rigidity statements on concrete modules and seals a report.  A
"counterexample-candidate" verdict demands every hypothesis verified (not
merely asserted) plus a certified conclusion failure; hypothesis failures
with failing conclusions are consistent (the statement makes no claim);
everything else is inconclusive.  Tor-rigidity is never decided: it
enters as a caller assertion citing a catalogued class whose checkable
preconditions are themselves verified.
"""

from dataclasses import dataclass, field

from .caps import Caps, DEFAULT_CAPS
from .graphs import graph_rank, hh_graph
from .homology import pd, is_torsion, tor, tor_vanishing
from .modules import PresentedModule, minimize, tensor, localized_rank
from .serre import is_reflexive, n_torsion_free

VERIFIED, ASSERTED, FAILED, UNKNOWN = "verified", "asserted", "failed", "unknown"


@dataclass
class LedgerEntry:
    name: str
    status: str
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class TheoremReport:
    pipeline: str
    hypotheses: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    verdict: str = "inconclusive"

    def seal(self):
        self.verdict = _verdict(self.hypotheses, self.conclusions)
        return self

    def hypothesis(self, name):
        return next(e for e in self.hypotheses if e.name == name)

    def conclusion(self, name):
        return next(e for e in self.conclusions if e.name == name)

    def as_dict(self):
        return {
            "pipeline": self.pipeline,
            "verdict": self.verdict,
            "hypotheses": [e.as_dict() for e in self.hypotheses],
            "conclusions": [e.as_dict() for e in self.conclusions],
            "notes": list(self.notes),
        }


def _verdict(hypotheses, conclusions):
    h_failed = any(e.status == FAILED for e in hypotheses)
    h_soft = any(e.status == UNKNOWN for e in hypotheses)
    h_all_verified = all(e.status == VERIFIED for e in hypotheses)
    h_hold = all(e.status in (VERIFIED, ASSERTED) for e in hypotheses)
    c_failed = any(e.status == FAILED for e in conclusions)
    c_all_ok = all(e.status == VERIFIED for e in conclusions)
    if h_hold and not h_soft:
        if c_all_ok:
            return "consistent"
        if c_failed and h_all_verified:
            return "counterexample-candidate"
        return "inconclusive"
    if h_failed and c_failed:
        return "consistent"
    return "inconclusive"


@dataclass
class RigidityAssertion:
    """Caller-supplied Tor-rigidity justification, by catalogued class."""

    kind: str        # finite-pd-hypersurface | finite-length-hypersurface |
                     # maximal-ideal-power | falsifier-clean | asserted
    detail: str = ""

    KINDS = (
        "finite-pd-hypersurface",
        "finite-length-hypersurface",
        "maximal-ideal-power",
        "falsifier-clean",
        "asserted",
    )


def _rigidity_entry(m: PresentedModule, assertion, caps) -> LedgerEntry:
    """Tor-rigidity is asserted, with the class's preconditions checked."""
    if assertion is None:
        return LedgerEntry("tor-rigidity", UNKNOWN, "no rigidity assertion supplied")
    if assertion.kind not in RigidityAssertion.KINDS:
        raise ValueError(f"unknown rigidity class {assertion.kind!r}")
    if assertion.kind == "finite-pd-hypersurface":
        if not m.ring.hypersurface:
            return LedgerEntry(
                "tor-rigidity", FAILED, "class requires a hypersurface ring"
            )
        p = pd(m, caps)
        if p.above_cap:
            return LedgerEntry(
                "tor-rigidity", UNKNOWN,
                "class requires finite projective dimension; resolution hit the cap",
            )
        return LedgerEntry(
            "tor-rigidity", ASSERTED,
            f"catalogued class: finite projective dimension ({p.value}) over a "
            "hypersurface (graded model: the unramified hypothesis is vacuous)",
        )
    if assertion.kind == "finite-length-hypersurface":
        status = ASSERTED if m.ring.hypersurface else FAILED
        return LedgerEntry(
            "tor-rigidity", status,
            "catalogued class: finite length over a hypersurface (length finiteness "
            "asserted by the caller)",
        )
    if assertion.kind == "maximal-ideal-power":
        return LedgerEntry(
            "tor-rigidity", ASSERTED,
            "catalogued class: power of the maximal ideal over positive depth "
            + (assertion.detail or ""),
        )
    if assertion.kind == "falsifier-clean":
        return LedgerEntry(
            "tor-rigidity", ASSERTED,
            "no violation found by the rigidity search: " + (assertion.detail or ""),
        )
    return LedgerEntry("tor-rigidity", ASSERTED, assertion.detail or "caller assertion")


def _tor_vanishing_entry(name, v) -> LedgerEntry:
    """The ledger entry of a `tor_vanishing` result."""
    if not v.all_zero:
        return LedgerEntry(
            name, FAILED, f"Tor_{v.first_nonzero} is nonzero (window {v.window})"
        )
    if v.certified_all:
        return LedgerEntry(
            name, VERIFIED,
            f"zero for i = 1..{v.window}; tail certified by {v.certificate}",
        )
    return LedgerEntry(
        name, UNKNOWN,
        f"zero for i = 1..{v.window}; no tail certificate (window only)",
    )


def _reflexivity_entry(name, module, expected_detail, caps) -> LedgerEntry:
    rep = is_reflexive(module, caps)
    status = VERIFIED if rep.reflexive else FAILED
    detail = (
        f"{expected_detail}: Ext^(1,2)(Tr -, R) verdicts {rep.ext_verdicts}, "
        f"biduality kernel/cokernel generators "
        f"{rep.biduality_kernel_generators}/{rep.biduality_cokernel_generators}"
    )
    return LedgerEntry(name, status, detail)


def _ntf_entry(name, rep, level, note="") -> LedgerEntry:
    """The ledger entry of an `n_torsion_free` result at `level`."""
    return LedgerEntry(
        name, VERIFIED if rep.all_vanish else FAILED,
        f"level {level} verdicts {rep.verdicts}" + (f" ({note})" if note else ""),
    )


def _min_ass_note(ring):
    red = ring.is_reduced()
    if red:
        return "ring certified reduced, so associated primes = minimal primes"
    return ("associated primes are not computed; rank is read at minimal primes "
            "(caveat: Ass may exceed Min for non-reduced rings)")


def _dedupe_primes(primes):
    seen = {}
    for p in primes:
        seen.setdefault(tuple(sorted(str(g) for g in p.generators)), p)
    return list(seen.values())


def _height_one_list(ring, extra, caps):
    """Minimal primes, auto-enumerated monomial height<=1 primes, extras."""
    primes = list(ring.minimal_primes(caps=caps))
    complete_note = "partial list"
    if ring.is_monomial():
        primes += ring.monomial_primes_of_height_at_most(1, caps)
        complete_note = "all monomial primes of height <= 1 enumerated"
    primes += list(extra or ())
    return _dedupe_primes(primes), complete_note


def _height_one_freeness(ring, n, extra, caps, surrogate):
    """The locally-free-height-one entry for N, the listed primes checked
    in order up to the first where N is not free, which is named, plus the
    list's completeness note; `surrogate` adds that freeness stands in for
    finite local pd."""
    y1, completeness = _height_one_list(ring, extra, caps)
    failure = None
    for prime in y1:
        lr = localized_rank(n, prime, caps)
        if lr.kind != "free":
            failure = prime, lr
            break
    if failure:
        prime, lr = failure
        note = (" (local freeness is the checkable surrogate for finite "
                "local projective dimension)" if surrogate else "")
        status, detail = FAILED, f"not free at {prime}{note}: {lr.witness}"
    else:
        note = ("; freeness is a sufficient surrogate for finite local "
                "projective dimension" if surrogate else "")
        status, detail = VERIFIED, f"free at every checked prime ({completeness}){note}"
    return LedgerEntry("locally-free-height-one", status, detail), completeness


# ----------------------------------------------------------------------
# pipelines


def verify_second_rigidity(m, n, caps: Caps = None, window: int = None):
    """Hypersurface + M has rank + tensor reflexive => N reflexive, Tor = 0."""
    caps = caps or DEFAULT_CAPS.fresh()
    window = window or caps.tor_window
    rep = TheoremReport("second-rigidity")
    ring = m.ring
    rep.hypotheses.append(
        LedgerEntry("hypersurface", VERIFIED if ring.hypersurface else FAILED,
                    f"defining ideal has a {len(ring.ideal.gb().generators)}-element basis")
    )
    gr = graph_rank(m, hh_graph(ring, caps), caps)
    if gr.has_rank:
        rep.hypotheses.append(LedgerEntry(
            "module-has-rank", VERIFIED,
            f"free of rank {gr.rank} at every minimal prime ({_min_ass_note(ring)})",
        ))
    else:
        rep.hypotheses.append(LedgerEntry("module-has-rank", FAILED, gr.witness))
    t = minimize(tensor(m, n), caps)
    rep.hypotheses.append(
        _reflexivity_entry("tensor-reflexive", t, "tensor product", caps)
    )
    rep.conclusions.append(
        _reflexivity_entry("partner-reflexive", n, "second factor", caps)
    )
    rep.conclusions.append(
        _tor_vanishing_entry("tor-vanishing", tor_vanishing(m, n, window, caps)))
    return rep.seal()


def verify_strong_second_rigidity(m, n, caps: Caps = None, height_one_primes=()):
    """Adds finite pd of M and local freeness of N in codimension <= 1."""
    caps = caps or DEFAULT_CAPS.fresh()
    rep = TheoremReport("strong-second-rigidity")
    ring = m.ring
    rep.hypotheses.append(
        LedgerEntry("hypersurface", VERIFIED if ring.hypersurface else FAILED, "")
    )
    p = pd(m, caps)
    if p.above_cap:
        rep.hypotheses.append(LedgerEntry(
            "finite-projective-dimension", UNKNOWN,
            f"resolution incomplete at the cap; {p}",
        ))
    else:
        rep.hypotheses.append(LedgerEntry(
            "finite-projective-dimension", VERIFIED, f"pd = {p.value}"
        ))
    entry, completeness = _height_one_freeness(ring, n, height_one_primes,
                                               caps, True)
    rep.hypotheses.append(entry)
    t = minimize(tensor(m, n), caps)
    rep.hypotheses.append(
        _reflexivity_entry("tensor-reflexive", t, "tensor product", caps)
    )
    rep.conclusions.append(
        _reflexivity_entry("left-reflexive", m, "first factor", caps)
    )
    rep.conclusions.append(
        _reflexivity_entry("partner-reflexive", n, "second factor", caps)
    )
    rep.notes.append(f"height-one enumeration: {completeness}")
    return rep.seal()


def verify_rigidity_vanishing(m, n, level: int, rigidity: RigidityAssertion = None,
                              caps: Caps = None, window: int = None):
    """Rigid M, finite CI-dim N, tensor n-torsion-free, torsion tails =>
    total Tor vanishing and N n-torsion-free.  One `tor_vanishing` walk
    serves both Tor questions: Tor_i = 0 below `first_nonzero` is torsion,
    and `tail_certified` decides whether the torsion tail is verified."""
    caps = caps or DEFAULT_CAPS.fresh()
    window = window or caps.tor_window
    rep = TheoremReport("rigidity-vanishing")
    ring = m.ring
    rep.hypotheses.append(_rigidity_entry(m, rigidity, caps))
    if ring.hypersurface:
        rep.hypotheses.append(LedgerEntry(
            "finite-ci-dimension", VERIFIED,
            "every module over a hypersurface has finite complete-intersection "
            "dimension (hypersurface shortcut)",
        ))
    else:
        rep.hypotheses.append(LedgerEntry(
            "finite-ci-dimension", ASSERTED,
            "not a hypersurface; finiteness asserted by the caller",
        ))
    t = minimize(tensor(m, n), caps)
    ntf_t = n_torsion_free(t, level, caps)
    rep.hypotheses.append(_ntf_entry("tensor-n-torsion-free", ntf_t, level,
                                     ntf_t.interpretation))
    v = tor_vanishing(m, n, window, caps)
    torsion_fails = next(
        (i for i in range(v.first_nonzero or window + 1, window + 1)
         if not is_torsion(tor(m, n, i, caps).module, caps)), None)
    if torsion_fails is not None:
        status, detail = FAILED, f"Tor_{torsion_fails} is not torsion"
    elif v.tail_certified:
        status, detail = VERIFIED, (f"torsion for i = 1..{window}; "
                                    f"tail certified by {v.certificate}")
    else:
        status, detail = ASSERTED, (f"torsion for i = 1..{window}; "
                                    "tail asserted (window only)")
    rep.hypotheses.append(LedgerEntry("tor-eventually-torsion", status, detail))
    rep.conclusions.append(_tor_vanishing_entry("tor-vanishing", v))
    rep.conclusions.append(_ntf_entry("partner-n-torsion-free",
                                      n_torsion_free(n, level, caps), level))
    return rep.seal()


def verify_rigidity_vanishing_strong(m, n, level: int,
                                     rigidity: RigidityAssertion = None,
                                     caps: Caps = None, window: int = None,
                                     height_one_primes=()):
    """The (S2)-ring strengthening: adds local freeness on the height<=1
    list and full support, and concludes n-torsion-freeness of M too."""
    caps = caps or DEFAULT_CAPS.fresh()
    window = window or caps.tor_window
    ring = m.ring
    rep = TheoremReport("rigidity-vanishing-strong")
    if not ring.is_cohen_macaulay(caps):
        rep.hypotheses.append(LedgerEntry(
            "serre-s2", UNKNOWN,
            f"no (S2) certificate: depth {ring.depth(caps)} < dim {ring.dim}; "
            "Cohen-Macaulayness is the only certificate this engine issues",
        ))
        rep.notes.append("refused: (S2) certificate unavailable")
        return rep.seal()
    rep.hypotheses.append(LedgerEntry(
        "serre-s2", VERIFIED,
        f"Cohen-Macaulay (depth = dim = {ring.dim}), a sufficient (S2) certificate",
    ))
    base = verify_rigidity_vanishing(m, n, level, rigidity, caps, window)
    rep.hypotheses.extend(base.hypotheses)
    entry, completeness = _height_one_freeness(ring, n, height_one_primes,
                                               caps, False)
    rep.hypotheses.append(entry)
    gr = graph_rank(n, hh_graph(ring, caps), caps)
    if gr.has_rank and gr.rank and gr.rank > 0:
        rep.hypotheses.append(LedgerEntry(
            "partner-support-full", VERIFIED,
            f"rank {gr.rank} > 0 at every minimal prime",
        ))
    else:
        rep.hypotheses.append(LedgerEntry(
            "partner-support-full", FAILED,
            gr.witness if not gr.has_rank else "rank zero somewhere",
        ))
    rep.conclusions.extend(base.conclusions)
    rep.conclusions.append(_ntf_entry("left-n-torsion-free",
                                      n_torsion_free(m, level, caps), level))
    rep.notes.append(f"height-one enumeration: {completeness}")
    return rep.seal()


PIPELINES = {
    "thm1.1": ("second-rigidity", verify_second_rigidity),
    "thm1.2": ("strong-second-rigidity", verify_strong_second_rigidity),
    "thm3.1": ("rigidity-vanishing", verify_rigidity_vanishing),
    "cor4.6": ("rigidity-vanishing-strong", verify_rigidity_vanishing_strong),
}
