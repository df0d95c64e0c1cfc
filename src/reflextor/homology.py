"""Minimal graded free resolutions, Tor, Ext, depth and torsion.

Resolutions are computed step by step (iterated syzygies with graded
Nakayama minimalization), append-only, and extended under a lock so
concurrent requests serialize.  A run keeps one resolution per module in
its store (`Caps.task_memo`), paying for each step when it computes it
and reusing it for free; a new run builds its own.  Every capped walk
obeys one rule (`FreeResolution.extend_to`), so an answer depends on the
module, the length asked for and the caps, never on what the run holds.
Homology of a three-term segment is one `modules.subquotient`: the kernel
of the map out, modulo the image of the map in and the middle's relations.

Tor and Ext share one segment builder over plain column blocks; no module
or map object is built for a segment's terms.  F_i (x) N is N^{b_i}, with
N's relation columns repeated block-diagonally and degrees twisted by the
shifts of F_i; its maps are d (x) id_N.  Hom(F_i, N) is the same block
twisted by minus the shifts, and Hom(d, N) is d^T (x) id_N.

Depth does not depend on the base ring, so it is read off the minimal
resolution over the ambient ring S by Auslander-Buchsbaum, depth M =
nvars - pd_S M, after one socle check Ext^0(k, M) settles depth 0.
"""

import math
import threading
from copy import copy
from dataclasses import dataclass

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groebner import FreeVector
from .hilbert import ambient_resolution, vector_degree
from .linalg import rank
from .modules import (
    PresentedModule,
    _free_power,
    _tensor_id,
    composes_to_zero,
    has_unit_entry,
    localized_rank,
    minimal_generator_indices,
    minimize,
    module_is_zero,
    subquotient,
    syzygies_over_ring,
)

INFINITE_DEPTH = math.inf


class FreeResolution:
    """Lazy minimal graded free resolution of a presented module."""

    def __init__(self, module: PresentedModule, caps: Caps = None):
        caps = caps or DEFAULT_CAPS.fresh()
        self.module = module
        base = minimize(module, caps)
        self.base = base
        self._shifts = [tuple(base.gen_degrees)]
        self._diffs = []  # _diffs[k] holds d_{k+1} columns inside R^{rank F_k}
        self._complete = False
        self._lock = threading.Lock()
        if base.num_generators == 0 or not base.columns:
            self._complete = True
        else:
            self._diffs.append(tuple(base.columns))
            self._shifts.append(tuple(base.col_degrees))

    # -- structure --------------------------------------------------------
    @property
    def ring(self):
        return self.module.ring

    @property
    def complete(self):
        return self._complete

    def length_computed(self):
        return len(self._shifts) - 1

    def betti_numbers(self):
        return [len(s) for s in self._shifts]

    def shift(self, k: int):
        return self._shifts[k]

    def differential(self, k: int):
        """Columns of d_k : F_k -> F_{k-1}; empty when out of range."""
        if 1 <= k <= len(self._diffs):
            return self._diffs[k - 1]
        return ()

    def ends_within(self, length: int) -> bool:
        """Whether a walk of `length` steps finds the end: a free or zero
        base ends at step 0, otherwise the end is found at the step past
        the last computed one."""
        return self._complete and (not self._diffs
                                   or self.length_computed() < length)

    def extend_to(self, length: int, caps: Caps = None):
        """Walk to homological degree min(length, cap).

        Past the cap, CapExceeded names the first step beyond it, unless
        the walk to the cap finds the end; the cache never changes which.
        """
        caps = caps or DEFAULT_CAPS.fresh()
        cap = caps.resolution_length
        self.extend_uncapped(min(length, cap), caps)
        if length > cap and not self.ends_within(cap):
            raise CapExceeded(
                f"resolution length {cap + 1} exceeds the cap ({cap})"
            )

    def extend_uncapped(self, length: int, caps: Caps):
        """`extend_to` without the resolution-length cap, for callers that
        bound the length themselves."""
        with self._lock:
            # a walk to `length` runs steps 1 .. length - 1, or to the end
            while not self._complete and self.length_computed() < length:
                last_rank = len(self._shifts[-1])
                last_cols = self._diffs[-1]
                # nonzero syzygies, in R^{#columns} = R^{rank F_last}
                syz = syzygies_over_ring(self.ring, len(self._shifts[-2]),
                                         list(last_cols), caps)
                if syz:
                    degs = [vector_degree(s, self._shifts[-1]) for s in syz]
                    kept = minimal_generator_indices(
                        self.ring, last_rank, syz, degs, caps=caps
                    )
                    self._diffs.append(tuple(syz[i] for i in kept))
                    self._shifts.append(tuple(degs[i] for i in kept))
                else:
                    self._complete = True

    def truncated(self, length: int) -> "FreeResolution":
        """The resolution as a walk of `length` steps reports it: no step
        past `length`, complete only when that walk finds the end."""
        view = copy(self)
        view._shifts = self._shifts[:length + 1]
        view._diffs = self._diffs[:length]
        view._complete = self.ends_within(length)
        return view

    # -- derived data ------------------------------------------------------
    def syzygy_module(self, n: int) -> PresentedModule:
        """coker(d_{n+1}), the n-th syzygy; the zero module past completion."""
        if n == 0:
            return self.base
        if n > self.length_computed():
            if self._complete:
                return PresentedModule(self.ring, (), (), _minimal=True)
            raise ValueError(f"resolution not extended to step {n}")
        gens = self._shifts[n]
        cols = self.differential(n + 1)
        out = PresentedModule(self.ring, gens, cols)
        out._minimal = True
        return out

    def check_d_squared(self) -> bool:
        """Exact verification that consecutive differentials compose to zero."""
        return all(composes_to_zero(self.ring, a, b)
                   for a, b in zip(self._diffs, self._diffs[1:]))

    def is_minimal(self) -> bool:
        return not any(has_unit_entry(diff) for diff in self._diffs)

    def _steps_match(self, k: int) -> bool:
        a, b = self.differential(k), self.differential(k + 2)
        if len(a) != len(b) or not a:
            return False
        if any(x.rank != y.rank for x, y in zip(a, b)):
            return False
        if any(x.coords != y.coords for x, y in zip(a, b)):
            return False
        lo = [y - x for x, y in zip(self._shifts[k - 1], self._shifts[k + 1])]
        hi = [y - x for x, y in zip(self._shifts[k], self._shifts[k + 2])]
        return len(set(lo)) == 1 and len(set(hi)) == 1

    def _factorizes(self, k: int) -> bool:
        """d_k d_{k+1} = f * C over S with C invertible, f the hypersurface's
        monic equation: then (d_k, d_{k+1} C^-1) factors f and coker d_k has
        a 2-periodic resolution (Eisenbud, 1980).  f divides every entry, d
        being a complex, and C is graded, so it is invertible exactly when
        its constant part, from the entries c * f of degree deg f, is."""
        a, b = self.differential(k), self.differential(k + 1)
        if not b or not len(a) == len(b) == a[0].rank:
            return False
        f = self.ring.ideal.gb().generators[0]
        fld, deg, rows = f.sig.field, f.total_degree(), []
        for col in b:
            image = sum((c.poly_mul(p) for c, p in zip(a, col.coords)),
                        FreeVector.zero(f.sig, len(a))).coords
            rows.append([p.leading_coefficient() if p.terms and p.total_degree() == deg
                         else fld.zero for p in image])
            if any(p != f.scale(c) for p, c in zip(image, rows[-1]) if c):
                return False
        return rank(rows, fld) == len(rows)

    def periodicity_onset(self):
        """First step i from which the resolution is certified 2-periodic,
        or None, by one test the ring picks.  On a hypersurface d_i, d_{i+1}
        factor f (entrywise repetition implies it there); on any other ring
        d_{i+2} = d_i with uniform shifts, so the (i+1)-st syzygy is the
        (i-1)-st twisted."""
        test = self._factorizes if self.ring.hypersurface else self._steps_match
        return next((i for i in range(1, len(self._diffs)) if test(i)), None)


def resolution(m: PresentedModule, caps: Caps = None) -> FreeResolution:
    """The run's resolution of M (append-only), kept in the run's store:
    the first call pays for minimizing its base, later calls with the same
    `caps` return the same object for free, and a new run builds its own,
    so a step never holds a degree past the run's degree cap."""
    caps = caps or DEFAULT_CAPS.fresh()
    return caps.task_memo(m, ("resolution",), lambda: FreeResolution(m, caps),
                          once=True)


def free_resolution(m: PresentedModule, max_length: int, caps: Caps = None):
    """The resolution of M walked to `max_length` under the cap rule of
    `extend_to`, as a view cut at step `max_length`."""
    caps = caps or DEFAULT_CAPS.fresh()
    res = resolution(m, caps)
    res.extend_to(max_length, caps)
    return res.truncated(max_length)


@dataclass
class PdResult:
    value: object            # int or None when above the cap
    above_cap: bool
    periodicity_onset: object = None

    def __str__(self):
        if self.above_cap:
            hint = ""
            if self.periodicity_onset is not None:
                hint = f" (2-periodic from step {self.periodicity_onset})"
            return f"AboveCap{hint}"
        return str(self.value)


def pd(m: PresentedModule, caps: Caps = None) -> PdResult:
    """Projective dimension, or AboveCap with a periodicity hint."""
    caps = caps or DEFAULT_CAPS.fresh()
    res = free_resolution(m, caps.resolution_length, caps)
    if res.complete:
        return PdResult(res.length_computed(), False)
    return PdResult(None, True, res.periodicity_onset())


# ----------------------------------------------------------------------
# homology of segments built from a resolution


@dataclass
class HomologyReport:
    kind: str
    index: int
    is_zero: bool
    module: object = None          # PresentedModule when materialized
    kernel_generators: tuple = ()  # membership certificate data
    relation_vectors: tuple = ()


def _resolution_homology(kind, m, n, i, caps, want_module):
    """Homology at F_i (x) N (Tor) or Hom(F_i, N) (Ext), F resolving M.

    Hom(d, N) is d^T (x) id_N on N^r twisted by -shifts, so both are one
    segment; only the placement differs.  Tor's map out is d_i and its map
    in d_{i+1}; Ext's map out is d_{i+1}^T and its map in d_i^T.
    """
    name = "Tor" if kind == "tor" else "Ext"
    if m.ring != n.ring:
        raise ValueError(f"{name} across different rings")
    if i < 0:
        raise ValueError(f"negative {name} index")
    caps = caps or DEFAULT_CAPS.fresh()
    res = resolution(m, caps)
    res.extend_to(i + 1, caps)
    if i > res.length_computed():  # the walk ended before F_i
        return HomologyReport(kind, i, True, PresentedModule(
            m.ring, (), (), _minimal=True) if want_module else None)

    def coords(k):
        return [c.coords for c in res.differential(k)]

    if kind == "tor":
        sign, k_out, k_in = 1, i - 1, i + 1
        a_out, a_in = coords(i), coords(i + 1)
    else:  # Hom(d, N) = d^T (x) id_N
        sign, k_out, k_in = -1, i + 1, i - 1
        a_out, a_in = (list(zip(*coords(k))) for k in (i + 1, i))
    degrees, relations = _free_power(n, res.shift(i), sign)
    outgoing = None
    if a_out:
        target_degs, target_relations = _free_power(n, res.shift(k_out), sign)
        outgoing = (_tensor_id(a_out, n, degrees, target_degs),
                    len(target_degs), target_relations)
    if a_in:  # the image of the map in comes first among the relations
        source_degs, _ = _free_power(n, res.shift(k_in), sign)
        relations = _tensor_id(a_in, n, source_degs, degrees) + relations
    module, gens, kernel_gens = subquotient(m.ring, degrees, relations,
                                            outgoing, caps, want_module)
    return HomologyReport(kind, i, not gens, module, tuple(kernel_gens),
                          tuple(relations))


def tor(m: PresentedModule, n: PresentedModule, i: int,
        caps: Caps = None, want_module: bool = True) -> HomologyReport:
    """Tor_i(M, N) = H_i(F(M) (x) N)."""
    return _resolution_homology("tor", m, n, i, caps, want_module)


def ext(m: PresentedModule, n: PresentedModule, i: int,
        caps: Caps = None, want_module: bool = True) -> HomologyReport:
    """Ext^i(M, N) = H^i(Hom(F(M), N))."""
    return _resolution_homology("ext", m, n, i, caps, want_module)


# ----------------------------------------------------------------------
# depth, torsion, the depth formula


def depth(m: PresentedModule, caps: Caps = None):
    """depth M by Auslander-Buchsbaum over S, with depth(0) the
    distinguished infinity.

    Depth does not depend on the base ring, so depth_R M = depth_S M =
    nvars - pd_S M (Bruns & Herzog, Thm 1.3.3), and pd_S M is the length
    of the minimal resolution over S that the Hilbert series walks too.
    A nonzero socle Ext^0(k, M) settles depth 0 first, with a kernel
    generator outside the relation span as its certificate: depth-0
    modules can have long, slow resolutions over S.  The walk is a task
    the caller asked for, so it is one `extend_to(nvars + 1)` under the
    resolution cap; pd_S M = p is known once the walk reaches step p + 1,
    and Hilbert's syzygy theorem says it ends by step nvars + 1.
    """
    caps = caps or DEFAULT_CAPS.fresh()
    if module_is_zero(m, caps):
        return INFINITE_DEPTH
    k = m.ring.residue_field_module()
    nvars = m.ring.sig.nvars
    try:
        if not ext(k, m, 0, caps, want_module=False).is_zero:
            return 0
        res = ambient_resolution(m.ring, m.gen_degrees, m.columns, caps)
        res.extend_to(nvars + 1, caps)
    except CapExceeded as exc:
        raise CapExceeded(f"depth: {exc}") from exc
    if not res.complete:
        raise RuntimeError("resolution over the ambient ring passed "
                           "the syzygy bound; engine invariant violated")
    return nvars - res.length_computed()


def is_torsion(t: PresentedModule, caps: Caps = None) -> bool:
    """T vanishes at every minimal prime: its rank there is 0, which
    `localized_rank` certifies by Fitt_0 lying outside the prime, read
    off the Fitting chain the ring's memo keeps."""
    caps = caps or DEFAULT_CAPS.fresh()
    return all(localized_rank(t, p, caps).rank == 0
               for p in t.ring.minimal_primes(caps=caps))


@dataclass
class TorVanishing:
    """One pair's Tor walk.  `tail_certified` is the one rule for whether
    the window speaks for every i >= 1: past pd M (or for a free or zero N)
    Tor_k = 0, and from the periodicity onset Tor_{k+2} is Tor_k up to a
    shift, so a window of at least onset + 1 holds both parities."""
    all_zero: bool
    window: int
    first_nonzero: object = None
    certificate: str = "window_only"   # finite_pd | periodicity | window_only
    periodicity_onset: object = None

    @property
    def tail_certified(self):
        return self.certificate != "window_only"

    @property
    def certified_all(self):
        return self.all_zero and self.tail_certified


def tor_vanishing(m: PresentedModule, n: PresentedModule, window: int,
                  caps: Caps = None) -> TorVanishing:
    """Check Tor_i(M,N) = 0 for i = 1..window, up to the first nonzero one,
    building no Tor module, and certify the tail if possible.

    A completed resolution of M, or a free or zero N (Tor is symmetric),
    certifies the tail for free.  A resolution of M 2-periodic from step i
    (`periodicity_onset`, on any ring) has Tor_{k+2} = Tor_k for k >= i, so
    a window that reaches i + 1 certifies every index.
    """
    caps = caps or DEFAULT_CAPS.fresh()
    first_nonzero = None
    for i in range(1, window + 1):
        report = tor(m, n, i, caps, want_module=False)
        if not report.is_zero:
            first_nonzero = i
            break
    all_zero = first_nonzero is None
    # read the steps the loop walked, not what the cache holds
    res = resolution(m, caps).truncated((first_nonzero or window) + 1)
    cert = "window_only"
    onset = None
    if res.complete or resolution(n, caps).ends_within(0):
        cert = "finite_pd"
    else:
        onset = res.periodicity_onset()
        if onset is not None and window >= onset + 1:
            cert = "periodicity"
    return TorVanishing(all_zero, window, first_nonzero, cert, onset)


@dataclass
class DepthFormulaReport:
    depth_left: object
    depth_right: object
    depth_ring: object
    depth_tensor: object
    holds: object                # True / False / None when untested
    vanishing: TorVanishing

    def summary(self):
        if self.holds is None:
            return "untested: Tor vanishing precondition not established"
        lhs = self.depth_left + self.depth_right
        rhs = self.depth_ring + self.depth_tensor
        return f"{self.depth_left} + {self.depth_right} = {lhs} vs " \
               f"{self.depth_ring} + {self.depth_tensor} = {rhs}: " \
               f"{'holds' if self.holds else 'FAILS'}"


def depth_formula_check(m: PresentedModule, n: PresentedModule,
                        window: int = None, caps: Caps = None):
    """depth M + depth N = depth R + depth(M (x) N), under Tor vanishing."""
    from .modules import tensor

    caps = caps or DEFAULT_CAPS.fresh()
    window = window or caps.tor_window
    vanishing = tor_vanishing(m, n, window, caps)
    if not vanishing.all_zero:
        return DepthFormulaReport(None, None, None, None, None, vanishing)
    dm = depth(m, caps)
    dn = depth(n, caps)
    dr = m.ring.depth(caps)
    dt = depth(tensor(m, n), caps)
    holds = (dm + dn) == (dr + dt)
    return DepthFormulaReport(dm, dn, dr, dt, holds, vanishing)
