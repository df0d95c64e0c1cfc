"""Multivariate polynomials with exact coefficients, ordered by grevlex.

A `RingSignature` pins down the coefficient field and the variable names;
a `Poly` is an immutable list of (exponent-tuple, coefficient) terms
sorted strictly descending in grevlex, the one monomial order, with no
zero coefficients.  All arithmetic is exact.
"""

import math
from dataclasses import dataclass

from .orders import GREVLEX, Packing, degree, grevlex_key, mono_mul

MINUS_INFINITY = -math.inf


class SignatureMismatch(ValueError):
    """Raised when operands live over different ring signatures."""


@dataclass(frozen=True)
class RingSignature:
    field: object
    variables: tuple
    order: str = GREVLEX  # the one order; any other raises

    def __post_init__(self):
        if self.order != GREVLEX:
            raise ValueError(f"unsupported monomial order {self.order!r}: only grevlex")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not all(v.isidentifier() for v in self.variables):
            raise ValueError("variable names must be identifiers")
        # the Groebner engine's one-int terms over this signature
        object.__setattr__(self, "packing", Packing(len(self.variables)))

    def __eq__(self, other):  # one shared signature is the common case
        return self is other or (other.__class__ is self.__class__ and (
            self.field, self.variables) == (other.field, other.variables))

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


def _check_sig(a, b):
    if a.sig != b.sig:
        raise SignatureMismatch(f"signature mismatch: {a.sig} vs {b.sig}")


class Poly:
    """Immutable exact polynomial; construct via the classmethods or parse."""

    __slots__ = ("sig", "terms", "_hash")

    def __init__(self, sig: RingSignature, terms: tuple):
        # terms must already be canonical; use from_dict for raw data
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_dict(cls, sig, coeffs: dict) -> "Poly":
        fld = sig.field
        items = [(m, c) for m, c in coeffs.items() if not fld.is_zero(c)]
        items.sort(key=lambda mc: grevlex_key(mc[0]))
        return cls(sig, tuple(items))

    @classmethod
    def zero(cls, sig) -> "Poly":
        return cls(sig, ())

    @classmethod
    def constant(cls, sig, c) -> "Poly":
        if sig.field.is_zero(c):
            return cls.zero(sig)
        return cls(sig, (((0,) * sig.nvars, c),))

    @classmethod
    def one(cls, sig) -> "Poly":
        return cls.constant(sig, sig.field.one)

    @classmethod
    def variable(cls, sig, name: str) -> "Poly":
        i = sig.var_index(name)
        expo = tuple(1 if j == i else 0 for j in range(sig.nvars))
        return cls(sig, ((expo, sig.field.one),))

    @classmethod
    def monomial(cls, sig, expo, c=None) -> "Poly":
        c = sig.field.one if c is None else c
        if sig.field.is_zero(c):
            return cls.zero(sig)
        return cls(sig, ((tuple(expo), c),))

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Max term degree, MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(degree(m) for m, _ in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def is_homogeneous(self) -> bool:
        return len({degree(m) for m, _ in self.terms}) <= 1

    def homogeneous_degree(self):
        """Degree if homogeneous, MINUS_INFINITY for zero; error otherwise."""
        degs = {degree(m) for m, _ in self.terms}
        if not degs:
            return MINUS_INFINITY
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial: {self}")
        return degs.pop()

    def coefficient(self, mono):
        for m, c in self.terms:
            if m == mono:
                return c
        return self.sig.field.zero

    def as_dict(self) -> dict:
        return dict(self.terms)

    # ------------------------------------------------------------------
    def __add__(self, other):
        _check_sig(self, other)
        fld = self.sig.field
        acc = dict(self.terms)
        for m, c in other.terms:
            s = fld.add(acc.get(m, fld.zero), c)
            if fld.is_zero(s):
                acc.pop(m, None)
            else:
                acc[m] = s
        return Poly.from_dict(self.sig, acc)

    def __neg__(self):
        fld = self.sig.field
        return Poly(self.sig, tuple((m, fld.neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_sig(self, other)
        fld = self.sig.field
        if not self.terms or not other.terms:
            return Poly.zero(self.sig)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                s = fld.add(acc.get(m, fld.zero), fld.mul(c1, c2))
                if fld.is_zero(s):
                    acc.pop(m, None)
                else:
                    acc[m] = s
        return Poly.from_dict(self.sig, acc)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.sig)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        fld = self.sig.field
        if fld.is_zero(c):
            return Poly.zero(self.sig)
        return Poly(self.sig, tuple((m, fld.mul(c, k)) for m, k in self.terms))

    def monic(self):
        if not self.terms:
            return self
        return self.scale(self.sig.field.inv(self.leading_coefficient()))

    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        # equal polynomials have equal terms; hashing the signature too
        # would rehash its dataclass fields on every call.  Kept on first use.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.terms))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    def _mono_str(self, m):
        parts = []
        for name, e in zip(self.sig.variables, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        fld = self.sig.field
        chunks = []
        for i, (m, c) in enumerate(self.terms):
            mono = self._mono_str(m)
            cs = fld.coeff_str(c)
            negative = cs.startswith("-")
            mag = cs[1:] if negative else cs
            if mono and mag == "1":
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = mag
            if i == 0:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Poly({self})"
