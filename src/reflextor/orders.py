"""Monomial orders on exponent tuples.

Monomials are plain tuples of nonnegative ints, one slot per ambient
variable.  Every order here is a total, multiplicative well-order, encoded
once as its `flat_key`: a flat int tuple, ascending as the monomials descend.
"""

from dataclasses import dataclass, field
from functools import partial
from operator import add, le, sub

LT, EQ, GT = -1, 0, 1


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


def mono_div(a, b):
    """a / b; caller must ensure divisibility."""
    return tuple(map(sub, a, b))


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
