"""Exact coefficient fields: arbitrary-precision rationals and prime fields."""

from fractions import Fraction
from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 2**31 input bound."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are `fractions.Fraction`."""

    characteristic = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_rational(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator in rational literal")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(1, a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    def cofactors(self, c, lc):
        """Smallest integers (a, b) with a*c == b*lc, for integers c and
        lc > 0: a scales the element being reduced, b the reducer."""
        g = gcd(c, lc)
        return lc // g, c // g

    def is_zero(self, a):
        return a == 0

    def normalized(self, terms):
        """An integer term dict with its zeros dropped."""
        return {t: c for t, c in terms.items() if c}

    def coeff_str(self, a):
        return str(a)


class PrimeField:
    """Integers mod p for a prime p < 2**31; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"prime field characteristic out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def from_rational(self, num, den):
        if den % self.p == 0:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def cofactors(self, c, lc):
        """(1, c/lc): a*c == b*lc with the element being reduced left as it is."""
        return 1, c * pow(lc, -1, self.p) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def normalized(self, terms):
        """An integer term dict reduced into [0, p), its zeros dropped."""
        return {t: r for t, c in terms.items() if (r := c % self.p)}

    def coeff_str(self, a):
        return str(a % self.p)


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
