"""Monomial orders on exponent tuples, and the packed terms they define.

Monomials are plain tuples of nonnegative ints, one slot per ambient
variable.  Every order here is a total, multiplicative well-order, encoded
once as its `flat_key`: a flat int tuple, ascending as the monomials descend.
Its fields are linear in the exponents, so it also defines `Packing`, the
one-int terms of S^r that ascend as the position-over-term order descends.
"""

import struct
from dataclasses import dataclass, field
from functools import partial
from operator import add, itemgetter, le, mul

LT, EQ, GT = -1, 0, 1

FIELD_BITS = 32
FIELD_MAX = (1 << FIELD_BITS - 1) - 1  # a field's values lie below its guard bit


def _grevlex_flat(m):
    return (-sum(m),) + m[::-1]


def _lex_flat(m):
    return tuple([-e for e in m])


def _elim_flat(k, m):
    """Grevlex on the first k variables, then grevlex on the rest."""
    return (-sum(m[:k]),) + m[k - 1::-1] + (-sum(m[k:]),) + m[:k - 1:-1]


@dataclass(frozen=True)
class MonomialOrder:
    kind: str          # "grevlex" | "lex" | "elim"
    block: int = 0     # for "elim": the first `block` variables dominate
    flat_key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = {"grevlex": _grevlex_flat, "lex": _lex_flat,
                "elim": partial(_elim_flat, self.block)}
        if self.kind not in keys:
            raise ValueError(f"unknown monomial order kind: {self.kind!r}")
        if self.kind == "elim" and self.block < 1:
            raise ValueError("elimination order needs a positive block size")
        object.__setattr__(self, "flat_key", keys[self.kind])


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination(k: int) -> MonomialOrder:
    """Order making the first k variables infinitely larger than the rest."""
    return MonomialOrder("elim", k)


def degree(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b) -> bool:
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def sort_key(order: MonomialOrder, m):
    """Key with key(a) < key(b) iff a < b in the order."""
    return tuple([-x for x in order.flat_key(m)])


def compare(order: MonomialOrder, m1, m2) -> int:
    """Return LT, EQ or GT for m1 against m2."""
    if len(m1) != len(m2):
        raise ValueError(f"monomial length mismatch: {len(m1)} vs {len(m2)}")
    k1, k2 = sort_key(order, m1), sort_key(order, m2)
    if k1 < k2:
        return LT
    if k1 > k2:
        return GT
    return EQ


class Packing:
    """Terms of S^r under `order` over `nvars` variables, one int each: the
    position in the top bits, below it the flat-key fields, FIELD_BITS wide
    with a guard bit on top and FIELD_MAX added where never positive, all in
    [0, FIELD_MAX] for a term of degree at most FIELD_MAX.  pack is linear:
    a term times t / lt is `term + (t - lt)`, and a field out of range sets
    its guard bit (`overflow`).  Each variable owns a field holding
    sign * m_i; lt divides t, a term in its position, exactly when
    (sign * t + half) - sign * lt sets no owned guard bit (`guards`)."""

    def __init__(self, order, nvars):
        rows = list(zip(*(order.flat_key(tuple(int(i == j) for j in range(nvars)))
                          for i in range(nvars))))  # rows[j]: field j's coefficients
        shifts = [FIELD_BITS * j for j in reversed(range(len(rows)))]
        guard = [1 << s + FIELD_BITS - 1 for s in shifts]
        self.sign = sign = 1 if any(a > 0 for row in rows for a in row) else -1
        own = {}  # variable -> the field holding sign * its exponent
        for j, row in enumerate(rows):
            if row.count(0) == nvars - 1 and sign in row:
                own.setdefault(row.index(sign), j)
        self.pos_shift = FIELD_BITS * len(rows)
        self.base = sum(FIELD_MAX << s for row, s in zip(rows, shifts) if min(row) < 0)
        self.weights = tuple(sum(row[i] << s for row, s in zip(rows, shifts))
                             for i in range(nvars))
        self.overflow = sum(guard)
        self.guards = sum(guard[j] for j in own.values())
        self.half = self.overflow - self.guards  # no borrow out of the sum fields
        # mono(t): the owned fields read as little-endian 32-bit slots
        read = struct.Struct("<" + "".join("I" if j in own.values() else "4x"
                                           for j in reversed(range(len(rows))))).unpack
        low, size = (1 << self.pos_shift) - 1, self.pos_shift // 8
        slots = sorted(own.values(), reverse=True)
        perm = [slots.index(own[i]) for i in range(nvars)]
        pick = itemgetter(*perm) if perm != sorted(perm) else None

        def mono(t):
            m = read((t & low).to_bytes(size, "little"))
            m = m if pick is None else pick(m)
            return m if sign > 0 else tuple(map(FIELD_MAX.__xor__, m))

        self.mono = mono

    def pack(self, pos, m):
        return self.base + (pos << self.pos_shift) + sum(map(mul, m, self.weights))

    def divides(self, dk, t):
        """The lead of divisor key dk = sign * lead divides t, in its position."""
        return not (self.sign * t + self.half - dk) & self.guards
