"""Buchberger's algorithm for ideals and submodules of free modules.

Internally an element of S^r is a dict mapping packed terms to
coefficients.  The module order is position-over-term: terms in an
earlier position are larger than any term in a later position, with
grevlex breaking ties inside a position.  That block shape is what makes
the tail-augmentation trick below work: appending a unit tail e_i to
each tracked input vector and running the pair queue yields a
generating set of their syzygy module (the elements whose span part
reduced to zero).  Over QQ every pair is treated and the set is the
reduced basis of the syzygy module; over GF(p) syzygies join no pair and
the set is Schreyer's generators.  Only tracked inputs carry tails.  The
relations D a query works modulo are one membership span
(`IncrementalSpan`), whose reduced basis seeds the run with zero tails;
the syzygies then generate the same module as those of a fully tailed
run with the untracked positions dropped (over QQ they are the same
basis), because those positions are the lowest ones.  All of these runs
go through one pair queue (`_PairQueue`).  The graded-Nakayama scan
grows a copy of D through the same queue, kept across offers and never
interreduced.  It reduces each offered vector first, as a zero remainder
against any of the queue's entries proves membership, and treats pairs
only while the remainder is nonzero, smallest first and up to the
offered degree: a homogeneous vector of degree delta lies in the span
exactly when it reduces to zero against a basis truncated at delta.

A term is one int (`orders.Packing`): the position in the top bits, below
it FIELD_MAX minus the degree and the exponents x_n ... x_1, 32 bits each
with a guard bit on top.  The ints ascend as the terms descend in grevlex,
so the reduction heap holds bare ints; a term times t / lt is
`k + (t - lt)` and "lt divides t" is `not (t + deg_guard - lt) & guards`,
with t + deg_guard taken once per term.  A new product term with a guard
bit set, or an input term of degree above `orders.FIELD_MAX`, raises
`CapExceeded`.  Leads keep exponent tuples too,
for lcms and `normal_form`'s early exit; a pair's lcm is packed once, when
it is queued, and the chain criterion, like minimalization, tests packed
terms against packed leads.

Under position-over-term only entries whose leads share a position can
pair, be chained or reduce one another (Becker & Weispfenning, Groebner
Bases, ch. 10).  So every basis is kept with its position index
(`_by_position`): each lead position mapped to its entries, in basis
order, built once where the basis is stored (`_PairQueue`, which extends
it on `push`, `GroebnerBasis`, `Span`, `IncrementalSpan`).  Pair
formation, the chain criterion, minimalization and every reducer search
walk one position's list, and the index is the only basis form
`_reduce_full` takes.  Within a position the reducer of a term is still
the first entry, in basis order, whose lead divides it.  A run may
remember that entry per term (a memo `first`, which lives with its queue
or call, never with a basis or a span), because a position list only
grows by appending: no later entry comes before a divisor already found.
An irreducible term is not remembered, as a later entry may divide it.

Field values and exponent tuples cross two boundaries.  `_as_terms` is
the way in: it turns a polynomial or vector v into (den, terms), a fresh
dict of packed terms to Python ints equal to den * v, den the lcm of the
denominators over QQ and 1 over GF(p); a tracked `Span` input's unit tail
is den, so the tail records den * v too.  Inside, every coefficient is an
int.  A basis entry (lt, lc, terms, lead) stands for the monic element
terms / lc: lt is its packed lead and lead the same as (position,
exponent tuple); over QQ its terms are primitive integers with lc > 0,
over GF(p) it is monic and lc = 1.
`_reduce_full` consumes the dict it reduces and scales it by the field's
cofactors (over QQ, lc/g and c/g with g = gcd(c, lc); over GF(p) 1 and
c/lc), each step plain integer arithmetic, old - b * c2, then one `% p`
over GF(p); it returns scale * NF, the scale starting at 1.  The way out
is `_unscale`, the one place `Fraction`s are made, then
`_terms_to_vector` or `_terms_to_poly`, which unpack: generators divide
by their entry's lc, syzygy tails, reduced modulo the ring's ideal while
still term dicts, by lc * scale, and the exact normal forms
(`normal_form`, `IncrementalSpan.normal_form`) divide once
by scale * den.  `normal_form` returns its input itself, converting
nothing, when no term of it is divisible by a basis lead in its
position: such an input is its own normal form.  A syzygy leaves with
its packed form, which `_as_terms` copies, so the next run (the Nakayama
scan, the next resolution step) packs nothing again.

All routines are pure; caps and cancellation are threaded via `Caps`.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, le, mul

from .caps import DEFAULT_CAPS, CapExceeded, Caps
from .orders import FIELD_MAX, degree, mono_divides, mono_lcm, mono_mul
from .poly import Poly, SignatureMismatch

_OVERFLOW = "exponent cap exceeded: a packed term field left its range"

# ----------------------------------------------------------------------
# vectors


class FreeVector:
    """Element of a free module S^r, coordinates sharing one signature.
    `_packed` is None or, set by `Span.syzygies`, what `_as_terms` makes
    of it; it takes no part in equality, hashing or arithmetic."""

    __slots__ = ("sig", "coords", "_hash", "_packed")

    def __init__(self, sig, coords):
        coords = tuple(coords)
        for p in coords:
            if p.sig != sig:
                raise SignatureMismatch("vector coordinate over a foreign signature")
        self.sig = sig
        self.coords = coords
        self._packed = None

    @classmethod
    def zero(cls, sig, rank):
        return cls(sig, tuple(Poly.zero(sig) for _ in range(rank)))

    @classmethod
    def unit(cls, sig, rank, i):
        coords = [Poly.zero(sig)] * rank
        coords[i] = Poly.one(sig)
        return cls(sig, coords)

    @property
    def rank(self):
        return len(self.coords)

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.coords)

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeVector(self.sig, (a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeVector(self.sig, (a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FreeVector(self.sig, (-a for a in self.coords))

    def poly_mul(self, p: Poly):
        return FreeVector(self.sig, (p * a for a in self.coords))

    def __eq__(self, other):
        return (
            isinstance(other, FreeVector)
            and self.sig == other.sig
            and self.coords == other.coords
        )

    def __hash__(self):
        try:  # as `Poly.__hash__`, the terms only, kept on first use
            return self._hash
        except AttributeError:
            self._hash = hash(self.coords)
            return self._hash

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.coords) + ")"

    def __repr__(self):
        return f"FreeVector{self}"


def _terms_to_vector(terms, sig, rank) -> FreeVector:
    """The vector of S^rank of a term dict, unpacked in sorted order."""
    pk = sig.packing
    mono, shift = pk.mono, pk.pos_shift
    buckets = [[] for _ in range(rank)]
    for t in sorted(terms):
        buckets[t >> shift].append((mono(t), terms[t]))
    return FreeVector(sig, tuple(Poly(sig, tuple(b)) for b in buckets))

def _terms_to_poly(terms, sig) -> Poly:
    mono = sig.packing.mono
    return Poly(sig, tuple([(mono(t), terms[t]) for t in sorted(terms)]))

def _coords(v, rank):
    """The coordinates of a polynomial (rank one) or a vector of S^rank."""
    if isinstance(v, Poly):
        if rank != 1:
            raise ValueError(f"polynomial against a module of rank {rank}")
        return (v,)
    if v.rank != rank:
        raise ValueError(f"rank mismatch: {v.rank} vs {rank}")
    return v.coords

def _as_terms(v, rank, fld):
    """(den, terms): a fresh term dict of Python ints equal to den * v, the
    one entry point for field values and exponent tuples.  Over QQ den is
    the lcm of the denominators, over GF(p) it is 1.  A packed form is
    copied, as callers extend and consume the dict."""
    coords = _coords(v, rank)
    packed = getattr(v, "_packed", None)
    if packed is not None:
        den, terms = packed
        return den, dict(terms)
    pk = v.sig.packing
    base, shift, w = pk.base, pk.pos_shift, pk.weights
    if any(sum(m) > FIELD_MAX for p in coords for m, _ in p.terms):
        raise CapExceeded(_OVERFLOW)
    items = [(base + (i << shift) + sum(map(mul, m, w)), c)
             for i, p in enumerate(coords) for m, c in p.terms]
    if fld.characteristic:
        return 1, dict(items)
    # two-argument folds: math.gcd and math.lcm leak memory on CPython 3.11
    # when given more than two arguments
    den = reduce(math.lcm, (c.denominator for _, c in items), 1)
    return den, {t: c.numerator * (den // c.denominator) for t, c in items}


# ----------------------------------------------------------------------
# term-level engine


def _unscale(terms, scale, fld):
    """The field-valued terms / scale: the one place `Fraction`s are made,
    the exit matching `_as_terms`.  Over GF(p) every scale is 1 and the
    terms are returned as they are."""
    if fld.characteristic:
        return terms
    return {t: Fraction(c, scale) for t, c in terms.items()}


def _entry(terms, pk, fld):
    """Basis entry (lt, lc, terms, lead) of a nonzero integer term dict,
    standing for the monic terms / lc: primitive integers with lc > 0
    over QQ, monic over GF(p).  lt is the packed lead, the smallest int,
    and lead its (position, exponent tuple)."""
    lt = min(terms)
    if fld.characteristic:
        inv = fld.inv(terms[lt])
        terms = {t: fld.mul(inv, c) for t, c in terms.items()}
    else:
        g = reduce(math.gcd, terms.values(), 0)
        g = -g if terms[lt] < 0 else g
        terms = {t: c // g for t, c in terms.items()}
    return (lt, terms[lt], terms, (lt >> pk.pos_shift, pk.mono(lt)))


def _reduce_full(work, index, first, pk, fld, caps: Caps = None):
    """Full normal form of an integer term dict against a basis, up to a
    scale; `work` is consumed.

    The basis is given by its position index (`_by_position`), the one form
    this routine takes: a term is checked only against the entries whose
    leads share its position, and its reducer is the first of them, in
    basis order, whose lead lt divides it (`pk`'s guard-bit test on
    t + deg_guard - lt).  `first` is the memo of those reducers that
    belongs to `index`, read before the scan and filled by it (see the
    module docstring); a caller reducing once passes a fresh dict.
    Returns (remainder, scale) with
    remainder = scale * NF(work), scale starting at 1; `_unscale` divides
    once.  Every term of the remainder is divisible by no basis lead in
    the same position.  The largest term, the smallest int, is popped from
    a heap; a term is pushed when it enters `work` and skipped if it has
    cancelled since.  A step adds only smaller terms, so none re-enters
    once popped.  Each step takes its multipliers (a, b) from
    `fld.cofactors`: work is scaled by a, which is 1 over GF(p), and b
    times the entry shifted by t - lt is subtracted, a new term out of
    range raising `CapExceeded`.  Under grevlex no such term can arise,
    as a step never raises a term's degree, but the check stays with the
    other guard-bit checks.  Each step is counted on `caps`, where one is
    given, so a cancel is seen inside a long reduction too.
    """
    p = fld.characteristic
    guards, deg_guard, overflow, pos_shift = (
        pk.guards, pk.deg_guard, pk.overflow, pk.pos_shift)
    scale = 1
    heap = list(work)
    heapq.heapify(heap)
    remainder = {}
    while heap:
        t = heapq.heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        hit = first.get(t)
        if hit is None:
            tk = t + deg_guard
            for entry in index.get(t >> pos_shift, ()):
                if not (tk - entry[0]) & guards:
                    first[t] = hit = entry
                    break
            else:
                remainder[t] = c
                continue
        if caps is not None:
            caps.step()
        lt, lc, terms, _ = hit
        a, b = fld.cofactors(c, lc)
        if a != 1:  # QQ only: integers, so plain products
            scale *= a
            for k in work:
                work[k] *= a
            for k in remainder:
                remainder[k] *= a
        shift = t - lt
        for k2, c2 in terms.items():
            if k2 == lt:
                continue
            key2 = k2 + shift
            old = work.get(key2)
            if old is None:
                if key2 & overflow:
                    raise CapExceeded(_OVERFLOW)
                heapq.heappush(heap, key2)
                old = 0
            s = old - b * c2
            if p:
                s %= p
            if s:
                work[key2] = s
            else:
                del work[key2]
    return remainder, scale


def _reduce_value(v, rank, index, first, fld, caps: Caps = None):
    """(remainder, scale) of a field-valued v against a position index and
    its reducer memo `first`: remainder = scale * NF(v), the scale counting
    the denominators `_as_terms` cleared."""
    den, work = _as_terms(v, rank, fld)
    remainder, scale = _reduce_full(work, index, first, v.sig.packing, fld, caps)
    return remainder, scale * den


def _by_position(entries):
    """The position index of a basis: each lead position mapped to the
    list of entries whose leads lie there, in basis order.  Only such
    entries can pair, be chained or reduce one another's terms under
    position-over-term."""
    index = {}
    for e in entries:
        index.setdefault(e[3][0], []).append(e)
    return index


def _spair(e1, e2, lcm, pk, fld):
    """S-vector b*x^s1*f1 - a*x^s2*f2 of two basis entries with leads in the
    same position and packed lcm `lcm`, (a, b) = fld.cofactors(c2, c1) so
    the leads cancel; a term whose field left its range raises
    `CapExceeded`."""
    lt1, c1, t1, _ = e1
    lt2, c2, t2, _ = e2
    s1, s2 = lcm - lt1, lcm - lt2
    a, b = fld.cofactors(c2, c1)
    acc = {k + s1: b * c for k, c in t1.items()}
    for k, c in t2.items():
        key = k + s2
        acc[key] = acc.get(key, 0) - a * c
    if any(map(pk.overflow.__and__, acc)):
        raise CapExceeded(_OVERFLOW)
    return fld.normalized(acc)


class _PairQueue:
    """The one pair queue: a basis list, its position index and reducer
    memo, its pending pairs and their heap.

    The `seeded` entries must already form a reduced basis (normalized as
    `_entry` leaves them, no term of one divisible by another's lead in
    its position), as `reduced` or `_ideal_block` gives; their pairs are
    never queued and count as treated for the chain criterion.  `index`
    maps each lead position to its entries and `slots` to their places in
    `basis`, both in basis order and both extended by `push`: pair
    formation and the chain criterion walk only the new entry's position,
    and every reduction takes `index` with its memo `first` (see
    `_reduce_full`), which `treat` and a scan's `IncrementalSpan.add`
    share: the index only grows by `_append`, so a term's first reducer
    found once stays its first for the queue's life.  The heap holds
    (key, j, i, lcm, deg lcm), the lcm packed once, and `pending` mirrors
    it; the chain criterion tests it against the packed leads and
    `_spair` shifts by it.
    A pair's key is deg lcm or, in a `graded` queue, its vector degree
    deg lcm + delta_j - deg lead_j, where j, the newer entry, is never
    seeded and was pushed with its vector degree delta_j.  An entry whose
    lead position is at or past `tail_pos` (a syzygy of a tailed run) is
    kept out of `slots`, so it joins no pair.  The entries before it still
    pair fully and stay a basis of their block, so by Schreyer's theorem
    (Eisenbud, Commutative Algebra, Thm 15.10) the syzygy entries
    generate the syzygy module, though they are no basis of it.  `reduced`
    interreduces only that syzygy block, as `Span` reads nothing else.
    """

    def __init__(self, seeded, sig, caps: Caps, rank: int, graded=False,
                 tail_pos=None):
        self.pk, self.tail_pos = sig.packing, math.inf if tail_pos is None else tail_pos
        self.fld, self.caps, self.rank, self.graded = sig.field, caps, rank, graded
        self.basis, self.index, self.slots, self.first = [], {}, {}, {}
        for e in seeded:
            self._append(e)
        self.n_seeded = len(self.basis)
        self.pending, self.heap = set(), []

    def _append(self, entry):
        pos = entry[3][0]
        if pos < self.tail_pos:
            self.slots.setdefault(pos, []).append(len(self.basis))
        self.index.setdefault(pos, []).append(entry)
        self.basis.append(entry)

    def push(self, terms, delta=None):
        """Append the entry of a nonzero integer term dict, of vector degree
        `delta` in a graded queue, and queue its pairs; returns the entry."""
        basis, j, pk = self.basis, len(self.basis), self.pk
        entry = _entry(terms, pk, self.fld)
        (pj, mj) = entry[3]
        shift = delta - degree(mj) if self.graded else 0
        for i in self.slots.get(pj, ()):
            lcm = mono_lcm(basis[i][3][1], mj)
            d = degree(lcm)
            self.pending.add((i, j))
            heapq.heappush(self.heap, (d + shift, j, i, pk.pack(pj, lcm), d))
        self._append(entry)
        return entry

    def drain(self, bound=None):
        """Treat the pairs of key at most `bound` (all without one), smallest
        first, one `treat` each."""
        heap = self.heap
        while heap and (bound is None or heap[0][0] <= bound):
            self.treat()

    def treat(self):
        """Treat the smallest pending pair: the chain criterion and, for rank
        one only, the product criterion drop it, else its remainder, if
        any, is pushed.  Returns the pushed entry, or None."""
        basis, pending, pk = self.basis, self.pending, self.pk
        d, j, i, lcm, deg = heapq.heappop(self.heap)
        pending.discard((i, j))
        self.caps.tick(deg)
        # product criterion is only sound for rank-one (polynomial) input,
        # where every lead is in position 0 and pack(0, m) = base + m.w
        if self.rank == 1 and lcm == basis[i][0] + basis[j][0] - pk.base:
            return None
        lk, guards = lcm + pk.deg_guard, pk.guards
        for k in self.slots[basis[i][3][0]]:
            if k not in (i, j) and not (lk - basis[k][0]) & guards:
                if (min(i, k), max(i, k)) not in pending and (
                        min(j, k), max(j, k)) not in pending:
                    return None
        nf, _ = _reduce_full(_spair(basis[i], basis[j], lcm, pk, self.fld),
                             self.index, self.first, pk, self.fld, self.caps)
        return self.push(nf, d) if nf else None

    def reduced(self):
        """The reduced basis of the entries' span; the queue must be drained.
        A tailed run interreduces its syzygy block, the entries at or past
        `tail_pos`, alone: the entries before it pass through as the queue
        left them, a basis of span + D though not a reduced one, since no
        lead there can divide a syzygy term, so the syzygies are those of a
        full interreduction.  Syzygy entries are no basis, so none of them
        is dropped; their tails are reduced like the others', by smaller
        leads only, which keeps their span and makes them far sparser."""
        basis, pk, n_seeded = self.basis, self.pk, self.n_seeded
        start = 0 if self.tail_pos == math.inf else self.tail_pos
        # minimalize, smallest lead first: drop entries whose lead is divisible by
        # another lead in its position; stable under reverse=True, the sort keeps
        # a seeded entry over a new one with the same lead.  `index` collects
        # the kept entries in this order, which the tail reduction searches.
        kept, index, fresh, reduced = [], {}, {}, []
        for k in sorted(range(len(basis)), key=lambda k: basis[k][0], reverse=True):
            p, tk = basis[k][3][0], basis[k][0] + pk.deg_guard
            if p < start:
                reduced.append(basis[k])
                continue
            same = index.setdefault(p, [])
            if p >= self.tail_pos or all((tk - e[0]) & pk.guards for e in same):
                kept.append(k)
                same.append(basis[k])
                if k >= n_seeded:
                    fresh.setdefault(p, []).append(basis[k][0])
        # tail-reduce and normalize.  A kept seeded entry is already
        # reduced against the other seeded ones, so it needs work only when the
        # lead of a kept new entry divides one of its terms.  The lead of a
        # kept entry divides none of its own smaller terms, nor any term the
        # reduction makes, so its tail is reduced against every kept entry
        # and the lead put back, scaled as the tail was.
        first = {}
        for k in kept:
            lt, lc, terms, _ = basis[k]
            if k < n_seeded and not any(
                pk.divides(lead, t) for t in terms for lead in fresh.get(t >> pk.pos_shift, ())
            ):
                reduced.append(basis[k])
                continue
            tail = dict(terms)
            del tail[lt]
            nf, scale = _reduce_full(tail, index, first, pk, self.fld, self.caps)
            reduced.append(_entry({lt: lc * scale, **nf}, pk, self.fld))
        reduced.sort(key=itemgetter(0), reverse=True)
        return reduced


def _buchberger_terms(inputs, sig, caps: Caps, rank: int, seeded=(), tail_pos=None):
    """One run of the pair queue: the reduced basis, as entries, of the
    span of the `seeded` entries and the term dicts `inputs`, entries past
    `tail_pos` left as `_PairQueue.reduced` leaves them."""
    queue = _PairQueue(seeded, sig, caps, rank, tail_pos=tail_pos)
    for terms in inputs:
        if terms:
            queue.push(terms)
    queue.drain()
    return queue.reduced()


# ----------------------------------------------------------------------
# public surface


@dataclass
class GroebnerBasis:
    """Reduced basis plus enough context to run normal forms against it:
    the entries and, built once beside them, their position index, which
    `normal_form` and `verify_groebner` search."""

    sig: object
    rank: int
    generators: list  # Poly when rank == 1 came from polynomials, else FreeVector
    _entries: list = ()

    def __post_init__(self):
        self._index = _by_position(self._entries)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_unit(self) -> bool:
        one = (0,) * self.sig.nvars
        return any(e[3][1] == one for e in self._entries)


def _as_term_inputs(gens):
    """Normalize a list of Poly or FreeVector into integer term dicts +
    context; each input's scale is dropped, as its span is the same."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    sig, is_poly = gens[0].sig, isinstance(gens[0], Poly)
    rank = 1 if is_poly else gens[0].rank
    for g in gens:
        if not isinstance(g, Poly if is_poly else FreeVector):
            raise ValueError("mixed polynomial and vector generators")
        if g.sig != sig:
            raise SignatureMismatch("mixed signatures in generating set")
        if not is_poly and g.rank != rank:
            raise ValueError(f"mixed ranks in generating set: {g.rank} vs {rank}")
    return [_as_terms(g, rank, sig.field)[1] for g in gens], sig, rank, is_poly


def buchberger(gens, caps: Caps = None):
    """Reduced Groebner basis of the ideal or submodule generated by gens."""
    caps = caps or DEFAULT_CAPS.fresh()
    inputs, sig, rank, is_poly = _as_term_inputs(gens)
    entries = _buchberger_terms(inputs, sig, caps, rank)
    monic = [_unscale(terms, lc, sig.field) for _, lc, terms, _ in entries]
    if is_poly:
        out = [_terms_to_poly(t, sig) for t in monic]
    else:
        out = [_terms_to_vector(t, sig, rank) for t in monic]
    return GroebnerBasis(sig, rank, out, entries)


def normal_form(f, gb: GroebnerBasis):
    """Unique canonical representative of f modulo the basis: f itself when
    no term of f is divisible by a basis lead in its position."""
    if f.sig != gb.sig:
        raise SignatureMismatch("signature mismatch in normal form")
    if not any(all(map(le, e[3][1], mono))
               for pos, p in enumerate(_coords(f, gb.rank))
               for e in gb._index.get(pos, ()) for mono, _ in p.terms):
        return f
    fld = gb.sig.field
    nf = _unscale(*_reduce_value(f, gb.rank, gb._index, {}, fld), fld)
    if isinstance(f, Poly):
        return _terms_to_poly(nf, gb.sig)
    return _terms_to_vector(nf, gb.sig, gb.rank)


def verify_groebner(gb: GroebnerBasis) -> bool:
    """Post-hoc check of Buchberger's criterion, with its own pair walk.

    Only entries in one position pair, so the walk runs position by
    position over the basis's index.  Pairs (i, j) of a position are
    established in index order: skipped by the product criterion (rank one
    only) or when some k there has a lead dividing lcm(i, j) with (i, k)
    and (j, k) established, since their lcm-representations give one of
    (i, j); else reduced to zero.
    """
    pk, fld, first = gb.sig.packing, gb.sig.field, {}
    for entries in gb._index.values():
        leads = [e[3][1] for e in entries]
        done = set()  # both orientations of every established pair
        for j, mj in enumerate(leads):
            for i, mi in enumerate(leads[:j]):
                lcm = mono_lcm(mi, mj)
                chained = (gb.rank == 1 and lcm == mono_mul(mi, mj)) or any(
                    (i, k) in done and (j, k) in done and mono_divides(mk, lcm)
                    for k, mk in enumerate(leads)
                )
                if not chained and _reduce_full(
                    _spair(entries[i], entries[j], pk.pack(entries[i][3][0], lcm),
                           pk, fld), gb._index, first, pk, fld
                )[0]:
                    return False
                done |= {(i, j), (j, i)}
    return True


def _ideal_block(ideal, rank, caps: Caps = None):
    """Reduced basis of ideal*S^rank: the ideal's basis times each e_i.

    It seeds a span, joining with no tails and no pairs among its entries.
    No ideal, no block.
    """
    if ideal is None:
        return []
    pk = ideal.sig.packing
    block = []
    for i in range(rank):
        off = i << pk.pos_shift
        for lt, lc, terms, (_, m) in ideal.gb(caps)._entries:
            block.append((lt + off, lc, {t + off: c for t, c in terms.items()}, (i, m)))
    return block


class Span:
    """Syzygies of `vectors` in S^rank modulo D.

    D is the membership span `modulo` (an `IncrementalSpan` of rank
    `rank`; none means D = 0), so with D seeded by an ideal*S^rank block
    the answers are syzygies over R = S/ideal relative to D's vectors.
    One augmented run, kept in `_aug`: only `vectors` carry unit tails;
    D's reduced basis seeds the run as it is.  Over QQ the syzygies are
    the reduced basis of the syzygy module, whose tail-tail pairs keep the
    coefficients small; over GF(p) they are Schreyer generators
    (`tail_pos`), for fewer pairs, and only this syzygy block is
    interreduced: the span block of `_aug` stays a basis of
    span(vectors) + D as the pair queue left it, not a reduced one.
    """

    def __init__(self, sig, rank, vectors, caps: Caps = None, modulo=None):
        caps = caps or DEFAULT_CAPS.fresh()
        self.sig = sig
        self.rank = rank
        self.count = len(vectors)
        fld = sig.field
        inputs = []
        for i, v in enumerate(vectors):
            # the unit tail is den, so the input is den * (v, e_i)
            den, terms = _as_terms(v, rank, fld)
            terms[sig.packing.pack(rank + i, (0,) * sig.nvars)] = den
            inputs.append(terms)
        self._aug = _buchberger_terms(
            inputs, sig, caps, rank + self.count,
            seeded=modulo._entries if modulo is not None else (),
            tail_pos=rank if fld.characteristic else None,
        )

    def syzygies(self, ideal=None, caps: Caps = None):
        """Generators of {a in S^count : sum a_i * vectors_i in D}: the
        entries with a lead in the tail block, which forces every term
        there.  With an `ideal` each is reduced against `_ideal_block`, a
        reduced basis of ideal*S^count, and zeros are dropped: reduced
        normal forms being unique, these are the syzygies over S/ideal that
        `normal_form` on each coordinate gives, in the same order.  Each
        vector keeps its packed form."""
        pk, fld = self.sig.packing, self.sig.field
        tail = self.rank << pk.pos_shift
        index, first = _by_position(_ideal_block(ideal, self.count, caps)), {}
        out = []
        for lt, lc, terms, _ in self._aug:
            if lt >= tail:
                nf, scale = _reduce_full({t - tail: c for t, c in terms.items()},
                                         index, first, pk, fld, caps)
                if nf:  # v = nf / den; over GF(p) den is 1
                    den = lc * scale
                    g = 1 if den == 1 else reduce(math.gcd, nf.values(), den)
                    v = _terms_to_vector(_unscale(nf, den, fld), self.sig, self.count)
                    v._packed = (den // g, {t: c // g for t, c in nf.items()} if g > 1 else nf)
                    out.append(v)
        return out


class IncrementalSpan:
    """Membership-only span of a growing vector list, plus ideal*S^rank.

    No tails are carried; `ideal`*S^rank is the seeded `_ideal_block`.
    The reduced basis `_basis` keeps its position index `_index` beside
    it, rebuilt only when the basis is replaced; every reduction takes
    the index.  `add(v, degree)`, the graded-Nakayama scan's step, keeps
    one graded `_PairQueue` across calls, never interreduced, and reduces
    against the queue's own index, treating its pairs up to `degree` only
    until v is decided: mid-scan its entries are a basis at most up to the
    degrees offered, and pairs at or below them may still be pending.  Any
    other use (`contains`, `normal_form`, `_entries` as a seed) first
    drains that queue and interreduces.  The list and index a span started
    from are never mutated, so a shallow copy of a span with no queue
    grows alone.  `memo_key` names the span's content in a run's memo
    (`modules.ring_membership_span` sets it); `add` drops it, as a grown
    span is no longer the span its key names.
    """

    def __init__(self, sig, rank, vectors=(), caps: Caps = None, ideal=None):
        self.sig = sig
        self.rank = rank
        self.caps = caps or DEFAULT_CAPS.fresh()
        self.memo_key = None
        self._queue = None
        basis = _ideal_block(ideal, rank, self.caps)
        if vectors:
            basis = _buchberger_terms(
                [_as_terms(v, rank, sig.field)[1] for v in vectors], sig,
                self.caps, rank, seeded=basis,
            )
        self._store(basis)

    def _store(self, basis):
        self._basis, self._index = basis, _by_position(basis)

    def _settle(self):
        """Drain a scan's queue, if any, and store its reduced basis."""
        if self._queue is not None:
            self._queue.drain()
            self._store(self._queue.reduced())
            self._queue = None

    @property
    def _entries(self):
        """The reduced basis of the span, settling a scan's queue first."""
        self._settle()
        return self._basis

    def contains(self, v) -> bool:
        return not self._reduce(v)[0]

    def normal_form(self, v) -> FreeVector:
        """The exact normal form of v modulo the span."""
        nf = _unscale(*self._reduce(v), self.sig.field)
        return _terms_to_vector(nf, self.sig, self.rank)

    def _reduce(self, v):
        self._settle()
        return _reduce_value(v, self.rank, self._index, {}, self.sig.field, self.caps)

    def add(self, v, degree) -> bool:
        """Absorb v, homogeneous of vector degree `degree`, as a scan step;
        True exactly when it was not already in the span.  v is reduced
        against the queue's entries; while the remainder is nonzero the
        queue's pairs up to `degree` are treated, the remainder reduced
        again when a pushed lead divides one of its terms, and a remainder
        left when none is pending joins the queue."""
        self.memo_key = None
        if self._queue is None:
            self._queue = _PairQueue(self._basis, self.sig, self.caps, self.rank,
                                     graded=True)
        q, pk, fld = self._queue, self.sig.packing, self.sig.field
        nf, _ = _reduce_value(v, self.rank, q.index, q.first, fld, self.caps)
        while nf and q.heap and q.heap[0][0] <= degree:
            e = q.treat()
            if e is not None and any(t >> pk.pos_shift == e[3][0] and pk.divides(e[0], t)
                                     for t in nf):
                nf, _ = _reduce_full(nf, q.index, q.first, pk, fld, self.caps)
        if nf:
            q.push(nf, degree)
        return bool(nf)


# ----------------------------------------------------------------------
# ideals


@dataclass
class Ideal:
    """Ideal of the ambient polynomial ring with a lazily cached basis."""

    sig: object
    generators: tuple

    def __post_init__(self):
        gens = tuple(g for g in self.generators if not g.is_zero)
        for g in gens:
            if g.sig != self.sig:
                raise SignatureMismatch("ideal generator over a foreign signature")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_gb", None)

    def gb(self, caps: Caps = None) -> GroebnerBasis:
        if self._gb is None:
            if not self.generators:
                object.__setattr__(self, "_gb", GroebnerBasis(self.sig, 1, [], []))
            else:
                object.__setattr__(self, "_gb", buchberger(self.generators, caps))
        return self._gb

    def contains(self, f: Poly, caps: Caps = None) -> bool:
        if not self.generators:
            return f.is_zero
        return normal_form(f, self.gb(caps)).is_zero

    def is_proper(self, caps: Caps = None) -> bool:
        if not self.generators:
            return True
        return not self.gb(caps).contains_unit()

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_quotient(ideal: Ideal, j: Ideal, caps: Caps = None) -> Ideal:
    """(I : J) = {c : c*J in I}: the syzygies of the one vector
    (g_1, ..., g_k) of J's generators modulo I*S^k, as Singular's
    `quotient` (Greuel & Pfister, A Singular Introduction to Commutative
    Algebra, 1.8).  For one generator f this is the syzygies of f modulo I."""
    if not j.generators:
        raise ValueError("ideal quotient by zero")
    k = len(j.generators)
    span = Span(ideal.sig, k, [FreeVector(ideal.sig, j.generators)], caps,
                IncrementalSpan(ideal.sig, k, (), caps, ideal))
    return Ideal(ideal.sig, tuple(s.coords[0] for s in span.syzygies()))


def lead_covers(ideal: Ideal, caps: Caps = None):
    """Variable index sets meeting the support of every lead term of the
    ideal's basis, in bitmask order; every set for the zero ideal."""
    n = ideal.sig.nvars
    supports = [frozenset(i for i, e in enumerate(entry[3][1]) if e)
                for entry in ideal.gb(caps)._entries]
    subsets = (frozenset(i for i in range(n) if (mask >> i) & 1)
               for mask in range(1 << n))
    return [c for c in subsets if all(s & c for s in supports)]


def krull_dimension(ideal: Ideal, caps: Caps = None) -> int:
    """dim(ambient/I): nvars minus the smallest cover of the lead supports,
    whose complement is a largest independent variable set."""
    if ideal.generators and ideal.gb(caps).contains_unit():
        raise ValueError("unit ideal has no dimension")
    return ideal.sig.nvars - min(map(len, lead_covers(ideal, caps)))


def radical_membership(f: Poly, ideal: Ideal, caps: Caps = None) -> bool:
    """f in rad(I), decided by the saturation (I : f^oo) being the unit
    ideal (Greuel & Pfister, 1.8): J = I, then J = (J : f) until 1 is in
    J (True) or the chain stops, every generator of (J : f) already in J
    (False)."""
    if f.is_zero:
        return True
    by_f = Ideal(ideal.sig, (f,))
    j = ideal
    while j.is_proper(caps):
        quotient = ideal_quotient(j, by_f, caps)
        if all(j.contains(g, caps) for g in quotient.generators):
            return False
        j = quotient
    return True


def intersect_ideals(a: Ideal, b: Ideal, caps: Caps = None) -> Ideal:
    """I intersect J: the syzygies of (1, 1) modulo I*e_1 + J*e_2, as
    Singular's `intersect` (Greuel & Pfister, 1.8)."""
    sig = a.sig
    if sig != b.sig:
        raise SignatureMismatch("ideal intersection across signatures")
    zero, one = Poly.zero(sig), Poly.one(sig)
    modulo = IncrementalSpan(
        sig, 2, [FreeVector(sig, (g, zero)) for g in a.generators]
        + [FreeVector(sig, (zero, h)) for h in b.generators], caps)
    span = Span(sig, 2, [FreeVector(sig, (one, one))], caps, modulo)
    return Ideal(sig, tuple(s.coords[0] for s in span.syzygies()))
