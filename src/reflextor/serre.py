"""Torsion-freeness and reflexivity verdicts via the transpose criterion.

A module is n-torsion-free when Ext^i(Tr M, R) vanishes for i = 1..n.  By
Auslander-Bridger's 0 -> Ext^1(Tr M, R) -> M -> M** -> Ext^2(Tr M, R) -> 0
the n = 1 and 2 verdicts are the torsionless and reflexive ones, so Ext
decides both; the biduality map only presents a failing verdict, and the
test suite checks the two routes against each other.  The Serre-condition
reading is attached only when its side conditions are certifiable, which
here means a hypersurface ring.

Both verdicts are kept in the ring's memo (`QuotientRing.memo`), keyed by
the presentation as given, not a minimized one (minimizing would itself
tick), so equal modules built by different tasks share one computation.
A hit charges the caller's caps as a recomputation would (a `Caps`
shared across threads can be mis-charged, never given a wrong answer).
The reports are frozen, since every hit shares one value.
"""

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .homology import ext
from .modules import PresentedModule, biduality, free_module, transpose


@dataclass(frozen=True)
class NTorsionFreeReport:
    verdicts: tuple              # Ext^i(Tr M, R) = 0 for i = 1..n
    interpretation: str          # "serre-condition" | "ext-criterion-only"

    @property
    def all_vanish(self):
        return all(self.verdicts)


def n_torsion_free(m: PresentedModule, n: int, caps: Caps = None):
    """Ext^i(Tr M, R) verdict vector for i = 1..n."""
    if n < 1:
        raise ValueError("torsion-freeness level must be at least 1")
    caps = caps or DEFAULT_CAPS.fresh()
    return m.ring.memo(("ntf", m.gen_degrees, m.columns, n), caps,
                       lambda: _n_torsion_free(m, n, caps))


def _n_torsion_free(m, n, caps):
    tr = transpose(m, caps)
    rfree = free_module(m.ring, (0,))
    verdicts = tuple(
        ext(tr, rfree, i, caps, want_module=False).is_zero for i in range(1, n + 1)
    )
    interp = "serre-condition" if m.ring.hypersurface else "ext-criterion-only"
    return NTorsionFreeReport(verdicts, interp)


@dataclass(frozen=True)
class ReflexivityReport:
    ext_verdicts: tuple                  # Ext^i(Tr M, R) = 0 for i = 1, 2
    biduality_kernel_generators: int     # 0 when torsionless
    biduality_cokernel_generators: int   # 0 when reflexive

    @property
    def torsionless(self):
        return self.ext_verdicts[0]

    @property
    def reflexive(self):
        return all(self.ext_verdicts)


def is_reflexive(m: PresentedModule, caps: Caps = None) -> ReflexivityReport:
    """The Ext criterion's verdicts, with the generator counts of the
    biduality map's kernel and cokernel; the map is built only when a
    verdict fails, since both counts are 0 otherwise."""
    caps = caps or DEFAULT_CAPS.fresh()
    return m.ring.memo(("reflexive", m.gen_degrees, m.columns), caps,
                       lambda: _is_reflexive(m, caps))


def _is_reflexive(m, caps):
    verdicts = n_torsion_free(m, 2, caps).verdicts
    if all(verdicts):
        return ReflexivityReport(verdicts, 0, 0)
    bid = biduality(m, caps)
    return ReflexivityReport(verdicts, bid.kernel.num_generators,
                             bid.cokernel.num_generators)
