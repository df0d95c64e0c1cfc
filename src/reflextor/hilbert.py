"""Hilbert series of graded modules over the ambient polynomial ring.

A series is stored as an integer Laurent-polynomial numerator over the
fixed denominator (1-t)^nvars.  The numerator is the alternating sum of
shift contributions along a finite graded free resolution over the
ambient ring, taken from `homology.FreeResolution` over that ring, so it
is independent of the resolution used and equality of numerators decides
equality of series.  `ambient_resolution` builds that resolution;
`homology.depth` walks the same one for pd over the ambient ring.
"""

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .groebner import FreeVector
from .rings import QuotientRing


def _laurent_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + sign * c
        if out[d] == 0:
            del out[d]
    return out


def _laurent_shift(a: dict, shift: int) -> dict:
    return {d + shift: c for d, c in a.items()}


def laurent_str(a: dict) -> str:
    if not a:
        return "0"
    chunks = []
    for d in sorted(a):
        c = a[d]
        if d == 0:
            body = str(abs(c))
        else:
            t = "t" if d == 1 else f"t^{d}"
            body = t if abs(c) == 1 else f"{abs(c)}*{t}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


@dataclass(frozen=True)
class HilbertSeries:
    numerator: tuple  # sorted tuple of (degree, int coefficient)
    nvars: int

    @classmethod
    def from_dict(cls, numer: dict, nvars: int):
        items = tuple(sorted((d, c) for d, c in numer.items() if c))
        return cls(items, nvars)

    def as_dict(self) -> dict:
        return dict(self.numerator)

    @property
    def is_zero(self):
        return not self.numerator

    def __add__(self, other):
        self._check(other)
        return HilbertSeries.from_dict(
            _laurent_add(self.as_dict(), other.as_dict()), self.nvars
        )

    def __sub__(self, other):
        self._check(other)
        return HilbertSeries.from_dict(
            _laurent_add(self.as_dict(), other.as_dict(), -1), self.nvars
        )

    def shift(self, d: int):
        """Series of the module twisted so degrees move up by d."""
        return HilbertSeries.from_dict(_laurent_shift(self.as_dict(), d), self.nvars)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("Hilbert series over different ambient rings")

    def coefficient(self, degree: int) -> int:
        """Dimension of the graded piece in the given degree."""
        from math import comb

        total = 0
        for d, c in self.numerator:
            k = degree - d
            if k >= 0:
                total += c * comb(self.nvars - 1 + k, k)
        return total

    def values(self, lo: int, hi: int):
        return [self.coefficient(d) for d in range(lo, hi + 1)]

    def __str__(self):
        if self.is_zero:
            return "0"
        return f"({laurent_str(self.as_dict())})/(1-t)^{self.nvars}"


def vector_degree(v: FreeVector, coord_degrees):
    """Degree of a homogeneous vector of a graded free module."""
    degs = set()
    for p, d in zip(v.coords, coord_degrees):
        if not p.is_zero:
            degs.add(p.homogeneous_degree() + d)
    if not degs:
        raise ValueError("zero vector has no degree")
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous vector: {v} over degrees {coord_degrees}")
    return degs.pop()


def minimal_vector_subset(span, vectors, degrees):
    """Indices of a minimal generating subset of (span(vectors) + D)/D over S.

    D is the membership span `span`, which this grows in place.  This is
    the one graded-Nakayama scan: vectors are taken by ascending degree,
    and one is kept exactly when it does not already lie in D plus the
    span of the ones kept before it.  Within a degree the sparsest come
    first, keeping sparse generators for the arithmetic downstream, ties
    broken by the nonzero coordinates' term tuples.  Each is offered with
    its degree, so the span's pair queue is drained only to that degree
    and never past the largest one; the span keeps the pairs above it
    until it is next queried or dropped.
    """
    def key(i):
        terms = [(pos, p.terms) for pos, p in enumerate(vectors[i].coords) if p.terms]
        return degrees[i], sum(len(t) for _, t in terms), terms

    order = sorted(range(len(vectors)), key=key)
    return sorted(i for i in order if span.add(vectors[i], degrees[i]))


def ambient_resolution(ring, gen_degrees, columns, caps: Caps = None):
    """The resolution over S of coker(columns) over `ring`, not yet extended.

    Over S the module is coker(columns + g*e_i), g running over the
    defining generators; `homology.FreeResolution` resolves it over S
    itself, the quotient ring with no defining ideal.  Hilbert series and
    depth both walk it.
    """
    from .homology import FreeResolution
    from .modules import PresentedModule

    sig = ring.sig
    rank = len(gen_degrees)
    relations = [
        FreeVector.unit(sig, rank, i).poly_mul(g)
        for g in ring.ideal.generators
        for i in range(rank)
    ]
    module = PresentedModule(QuotientRing(sig, ()), gen_degrees,
                             list(columns) + relations)
    return FreeResolution(module, caps)


def hilbert_series_of_presentation(ring, gen_degrees, columns, caps: Caps = None):
    """Alternating-shift Hilbert series of coker(columns) over `ring`, as an
    S-module, from its `ambient_resolution`.

    Hilbert's syzygy theorem, not the caller's resolution cap, bounds that
    walk at nvars steps, so it runs one step past the bound and an
    unfinished resolution is an engine fault.
    """
    sig = ring.sig
    if not gen_degrees:
        return HilbertSeries.from_dict({}, sig.nvars)
    caps = caps or DEFAULT_CAPS.fresh()
    res = ambient_resolution(ring, gen_degrees, columns, caps)
    res.extend_uncapped(sig.nvars + 1, caps)
    if not res.complete:
        raise RuntimeError("ambient resolution exceeded the syzygy bound")
    numer = {}
    for k in range(res.length_computed() + 1):
        for d in res.shift(k):
            numer[d] = numer.get(d, 0) + (-1) ** k
    return HilbertSeries.from_dict(numer, sig.nvars)
