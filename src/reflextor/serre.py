"""Torsion-freeness and reflexivity verdicts via the transpose criterion.

A module is n-torsion-free when Ext^i(Tr M, R) vanishes for i = 1..n;
for n = 1 and 2 this matches, unconditionally, the kernel and cokernel of
the natural biduality map, which gives a free internal cross-check.  The
Serre-condition reading of the vector is attached only when the side
conditions are certifiable, which here means a hypersurface ring.

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


class VerdictDisagreement(RuntimeError):
    """Biduality and the Ext criterion disagreed; an engine bug trap."""


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
    reflexive: bool
    torsionless: bool
    biduality_kernel_generators: int
    biduality_cokernel_generators: int
    ext_verdicts: tuple


def is_reflexive(m: PresentedModule, caps: Caps = None) -> ReflexivityReport:
    """Biduality test and the Ext criterion, required to agree."""
    caps = caps or DEFAULT_CAPS.fresh()
    return m.ring.memo(("reflexive", m.gen_degrees, m.columns), caps,
                       lambda: _is_reflexive(m, caps))


def _is_reflexive(m, caps):
    bid = biduality(m, caps)
    ntf = n_torsion_free(m, 2, caps)
    if bid.torsionless != ntf.verdicts[0] or bid.reflexive != ntf.all_vanish:
        raise VerdictDisagreement(
            f"biduality gives (torsionless={bid.torsionless}, "
            f"reflexive={bid.reflexive}) but Ext gives {ntf.verdicts}"
        )
    return ReflexivityReport(
        bid.reflexive,
        bid.torsionless,
        bid.kernel.num_generators,
        bid.cokernel.num_generators,
        ntf.verdicts,
    )
