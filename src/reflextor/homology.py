"""Minimal graded free resolutions, Tor, Ext, depth and torsion.

Resolutions are computed step by step (iterated syzygies with graded
Nakayama minimalization), cached append-only on the module, and extended
under a lock so concurrent requests serialize.  Homology of a three-term
segment is kernel-mod-image: one syzygy run for the kernel preimage, one
membership pass for the is_zero verdict, and a subquotient presentation
when the module itself is wanted.
"""

import math
import threading
from dataclasses import dataclass

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groebner import FreeVector
from .hilbert import vector_degree
from .modules import (
    ModuleMap,
    PresentedModule,
    fitting_ideal,
    minimal_generator_indices,
    minimize,
    module_is_zero,
    present_subquotient,
    ring_membership_span,
    syzygies_over_ring,
)
from .poly import Poly

INFINITE_DEPTH = math.inf


class FreeResolution:
    """Lazy minimal graded free resolution of a presented module."""

    def __init__(self, module: PresentedModule):
        self.module = module
        base = minimize(module)
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

    def extend_to(self, length: int, caps: Caps = None):
        """Ensure the resolution is computed to homological degree `length`."""
        caps = caps or DEFAULT_CAPS.fresh()
        if length > caps.resolution_length:
            raise CapExceeded(
                f"resolution length {length} exceeds the cap "
                f"({caps.resolution_length})"
            )
        with self._lock:
            while not self._complete and self.length_computed() < length:
                last_rank = len(self._shifts[-1])
                last_cols = self._diffs[-1]
                syz = syzygies_over_ring(self.ring, len(self._shifts[-2]),
                                         list(last_cols), caps)
                # syzygies arrive in R^{#columns} = R^{rank F_last}
                syz = [s for s in syz if not s.is_zero]
                if not syz:
                    self._complete = True
                    return
                degs = [vector_degree(s, self._shifts[-1]) for s in syz]
                kept = minimal_generator_indices(
                    self.ring, last_rank, syz, degs, caps=caps
                )
                cols = tuple(syz[i] for i in kept)
                self._diffs.append(cols)
                self._shifts.append(tuple(degs[i] for i in kept))

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
        for k in range(2, len(self._diffs) + 1):
            prev = self.differential(k - 1)
            for col in self.differential(k):
                acc = FreeVector.zero(self.ring.sig, len(self._shifts[k - 2]))
                for i, p in enumerate(col.coords):
                    if not p.is_zero:
                        acc = acc + prev[i].poly_mul(p)
                if not self.ring.reduce_vector(acc).is_zero:
                    return False
        return True

    def is_minimal(self) -> bool:
        return all(
            all(p.is_zero or p.total_degree() > 0 for p in col.coords)
            for diff in self._diffs
            for col in diff
        )

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

    def periodicity_onset(self):
        """Smallest step i with d_{k+2} = d_k for every computed k >= i."""
        top = len(self._diffs)
        candidates = [i for i in range(1, top - 1)]
        for i in candidates:
            if all(self._steps_match(k) for k in range(i, top - 1)):
                return i
        return None


def resolution(m: PresentedModule) -> FreeResolution:
    """The cached resolution attached to a module (append-only)."""
    with m._resolution_lock:
        if m._resolution is None:
            m._resolution = FreeResolution(m)
        return m._resolution


def free_resolution(m: PresentedModule, max_length: int, caps: Caps = None):
    res = resolution(m)
    caps = caps or DEFAULT_CAPS.fresh()
    try:
        res.extend_to(max_length, caps)
    except CapExceeded:
        if res.length_computed() < max_length and not res.complete:
            raise
    return res


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
    res = resolution(m)
    res.extend_to(caps.resolution_length, caps)
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
    generator_count: int = 0
    kernel_generators: tuple = ()  # membership certificate data
    relation_vectors: tuple = ()

    def hilbert_series(self, caps: Caps = None):
        if self.module is None:
            raise ValueError("homology module was not materialized")
        return self.module.hilbert_series(caps)


def _free_multiple(n: PresentedModule, shifts, sign: int) -> PresentedModule:
    """N^r with coordinate twists: tensor for sign=+1, Hom(F, N) for sign=-1."""
    ring = n.ring
    gn = n.num_generators
    degs = tuple(
        sign * s + n.gen_degrees[t] for s in shifts for t in range(gn)
    )
    zero = Poly.zero(ring.sig)
    cols = []
    for s_idx in range(len(shifts)):
        for col in n.columns:
            coords = [zero] * (len(shifts) * gn)
            for t in range(gn):
                if not col.coords[t].is_zero:
                    coords[s_idx * gn + t] = col.coords[t]
            cols.append(FreeVector(ring.sig, coords))
    out = PresentedModule(ring, degs, cols)
    return out


def _tensor_map(diff_cols, source: PresentedModule, target: PresentedModule,
                n: PresentedModule, target_rank: int) -> ModuleMap:
    """d (x) id_N on generator grids (s, t)."""
    ring = n.ring
    gn = n.num_generators
    zero = Poly.zero(ring.sig)
    cols = []
    for s_idx, dcol in enumerate(diff_cols):
        for t in range(gn):
            coords = [zero] * (target_rank * gn)
            for u in range(dcol.rank):
                p = dcol.coords[u]
                if not p.is_zero:
                    coords[u * gn + t] = p
            cols.append(FreeVector(ring.sig, coords))
    return ModuleMap(source, target, cols, check=False)


def _hom_map(diff_cols, source: PresentedModule, target: PresentedModule,
             n: PresentedModule, source_rank: int, target_rank: int) -> ModuleMap:
    """Hom(d, N): precomposition with d on functional grids (s, t)."""
    ring = n.ring
    gn = n.num_generators
    zero = Poly.zero(ring.sig)
    cols = []
    for s in range(source_rank):
        for t in range(gn):
            coords = [zero] * (target_rank * gn)
            for u, dcol in enumerate(diff_cols):
                p = dcol.coords[s]
                if not p.is_zero:
                    coords[u * gn + t] = p
            cols.append(FreeVector(ring.sig, coords))
    return ModuleMap(source, target, cols, check=False)


def _segment_homology(ring, middle: PresentedModule, outgoing: ModuleMap,
                      incoming_cols, kind, index, want_module, caps):
    """Homology at `middle` of  .. -> middle -> next, with incoming columns."""
    gb_rank = middle.num_generators
    if gb_rank == 0:
        return HomologyReport(kind, index, True,
                              PresentedModule(ring, (), (), _minimal=True)
                              if want_module else None)
    if outgoing is None:
        kernel_gens = [
            FreeVector.unit(ring.sig, gb_rank, i) for i in range(gb_rank)
        ]
    else:
        target = outgoing.target
        kernel_gens = syzygies_over_ring(ring, target.num_generators,
                                         outgoing.columns, caps,
                                         modulo=target.columns)
    relations = list(incoming_cols) + list(middle.columns)
    member = ring_membership_span(ring, gb_rank, relations, caps)
    is_zero = all(member.contains(k) for k in kernel_gens)
    module = None
    if want_module:
        if is_zero:
            module = PresentedModule(ring, (), (), _minimal=True)
        else:
            module, _ = present_subquotient(
                ring, gb_rank, middle.gen_degrees, kernel_gens, relations, caps
            )
    return HomologyReport(kind, index, is_zero, module,
                          0 if module is None else module.num_generators,
                          tuple(kernel_gens), tuple(relations))


def tor(m: PresentedModule, n: PresentedModule, i: int,
        caps: Caps = None, want_module: bool = True) -> HomologyReport:
    """Tor_i(M, N) = H_i(F(M) (x) N)."""
    if m.ring != n.ring:
        raise ValueError("Tor across different rings")
    if i < 0:
        raise ValueError("negative Tor index")
    caps = caps or DEFAULT_CAPS.fresh()
    res = resolution(m)
    res.extend_to(min(i + 1, caps.resolution_length), caps)
    if i > res.length_computed() and res.complete:
        return HomologyReport("tor", i, True,
                              PresentedModule(m.ring, (), (), _minimal=True)
                              if want_module else None)
    if i + 1 > res.length_computed() and not res.complete:
        res.extend_to(i + 1, caps)
    ring = m.ring
    middle = _free_multiple(n, res.shift(i), +1)
    outgoing = None
    if i >= 1:
        target = _free_multiple(n, res.shift(i - 1), +1)
        outgoing = _tensor_map(res.differential(i), middle, target, n,
                               len(res.shift(i - 1)))
    incoming = []
    next_cols = res.differential(i + 1)
    if next_cols:
        source = _free_multiple(n, res.shift(i + 1), +1)
        incoming = _tensor_map(next_cols, source, middle, n,
                               len(res.shift(i))).columns
    return _segment_homology(ring, middle, outgoing, incoming, "tor", i,
                             want_module, caps)


def ext(m: PresentedModule, n: PresentedModule, i: int,
        caps: Caps = None, want_module: bool = True) -> HomologyReport:
    """Ext^i(M, N) = H^i(Hom(F(M), N))."""
    if m.ring != n.ring:
        raise ValueError("Ext across different rings")
    if i < 0:
        raise ValueError("negative Ext index")
    caps = caps or DEFAULT_CAPS.fresh()
    res = resolution(m)
    res.extend_to(min(i + 1, caps.resolution_length), caps)
    if i > res.length_computed() and res.complete:
        return HomologyReport("ext", i, True,
                              PresentedModule(m.ring, (), (), _minimal=True)
                              if want_module else None)
    if i + 1 > res.length_computed() and not res.complete:
        res.extend_to(i + 1, caps)
    ring = m.ring
    middle = _free_multiple(n, res.shift(i), -1)
    outgoing = None
    up_cols = res.differential(i + 1)
    if up_cols:
        target = _free_multiple(n, res.shift(i + 1), -1)
        outgoing = _hom_map(up_cols, middle, target, n,
                            len(res.shift(i)), len(res.shift(i + 1)))
    incoming = []
    if i >= 1:
        source = _free_multiple(n, res.shift(i - 1), -1)
        incoming = _hom_map(res.differential(i), source, middle, n,
                            len(res.shift(i - 1)), len(res.shift(i))).columns
    return _segment_homology(ring, middle, outgoing, incoming, "ext", i,
                             want_module, caps)


# ----------------------------------------------------------------------
# depth, torsion, the depth formula


def depth(m: PresentedModule, caps: Caps = None):
    """min{i : Ext^i(k, M) != 0}, with depth(0) the distinguished infinity."""
    caps = caps or DEFAULT_CAPS.fresh()
    if module_is_zero(m, caps):
        return INFINITE_DEPTH
    k = m.ring.residue_field_module()
    for i in range(m.ring.dim + 1):
        report = ext(k, m, i, caps, want_module=False)
        if not report.is_zero:
            return i
    raise RuntimeError(
        "no Ext^i(k, M) found nonzero up to dim R; engine invariant violated"
    )


def is_torsion(t: PresentedModule, caps: Caps = None) -> bool:
    """T vanishes at every minimal prime, certified through Fitt_0."""
    caps = caps or DEFAULT_CAPS.fresh()
    primes = t.ring.minimal_primes(caps=caps)
    tm = minimize(t, caps)
    fitt0 = fitting_ideal(tm, 0, caps)
    from .groebner import normal_form as nf

    for p in primes:
        gb = p.lift_gb(caps)
        if all(nf(g, gb).is_zero for g in fitt0.generators):
            return False  # Fitt_0 inside p: T survives at p
    return True


@dataclass
class TorVanishing:
    all_zero: bool
    window: int
    first_nonzero: object = None
    certificate: str = "window_only"   # finite_pd | periodicity | window_only
    periodicity_onset: object = None

    @property
    def certified_all(self):
        return self.all_zero and self.certificate in ("finite_pd", "periodicity")


def tor_vanishing(m: PresentedModule, n: PresentedModule, window: int,
                  caps: Caps = None) -> TorVanishing:
    """Check Tor_i(M,N) = 0 for i = 1..window and certify the tail if possible.

    Over a hypersurface an observed entrywise 2-periodic resolution repeats
    homology with period two, so vanishing across the window extends to all
    i past the onset; a completed resolution certifies the tail for free.
    """
    caps = caps or DEFAULT_CAPS.fresh()
    first_nonzero = None
    for i in range(1, window + 1):
        report = tor(m, n, i, caps, want_module=False)
        if not report.is_zero:
            first_nonzero = i
            break
    all_zero = first_nonzero is None
    res = resolution(m)
    cert = "window_only"
    onset = None
    if res.complete:
        cert = "finite_pd"
    elif m.ring.hypersurface:
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
