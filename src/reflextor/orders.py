"""The monomial order, grevlex, on exponent tuples, and its packed terms.

Monomials are plain tuples of nonnegative ints, one slot per ambient
variable.  Grevlex is the only order: `grevlex_key` is a flat int tuple
ascending as the monomials descend, and `Packing` turns a term of S^r
into one int ascending as the position-over-term order descends.
"""

import struct
from operator import add, le, mul

GREVLEX = "grevlex"  # the one order a `RingSignature` accepts

FIELD_BITS = 32
FIELD_MAX = (1 << FIELD_BITS - 1) - 1  # a field's values lie below its guard bit


def grevlex_key(m):
    """Key ascending as the monomials descend: minus the degree, then the
    exponents from the last variable to the first."""
    return (-sum(m),) + m[::-1]


def degree(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b) -> bool:
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class Packing:
    """Terms of S^r over `nvars` variables, one int each.  From the top:
    position | FIELD_MAX - deg | x_n ... x_1, every field FIELD_BITS wide
    with a guard bit on top, all in [0, FIELD_MAX] for a term of degree at
    most FIELD_MAX, so the ints ascend as the terms descend in grevlex,
    position over term.  pack is linear: a term times t / lt is
    `term + (t - lt)`, and a field out of range sets its guard bit
    (`overflow`).  lt divides t, a term in its position, exactly when
    t + deg_guard - lt sets no exponent field's guard bit (`guards`): the
    lowest field with t_i < lt_i sets its own, and the borrow out of the
    degree field that a multiple of higher degree makes is taken by
    `deg_guard`, that field's guard bit, which the test never reads.  It
    keeps the difference a nonnegative int, for which CPython's `&` makes
    no two's-complement copy: the test runs about a third faster."""

    def __init__(self, nvars):
        deg_shift = FIELD_BITS * nvars
        guard = 1 << FIELD_BITS - 1
        self.pos_shift = deg_shift + FIELD_BITS
        self.base = FIELD_MAX << deg_shift
        self.weights = tuple((1 << FIELD_BITS * i) - (1 << deg_shift)
                             for i in range(nvars))
        self.guards = sum(guard << FIELD_BITS * i for i in range(nvars))
        self.deg_guard = guard << deg_shift
        self.overflow = self.guards | self.deg_guard
        # mono(t): the exponent fields read as little-endian 32-bit slots
        read = struct.Struct(f"<{nvars}I").unpack
        low, size = (1 << deg_shift) - 1, deg_shift // 8
        self.mono = lambda t: read((t & low).to_bytes(size, "little"))

    def pack(self, pos, m):
        return self.base + (pos << self.pos_shift) + sum(map(mul, m, self.weights))

    def divides(self, lt, t):
        """The packed lead lt divides the packed term t, in its position."""
        return not (t + self.deg_guard - lt) & self.guards
