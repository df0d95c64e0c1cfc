"""Quotient rings R = S/I with homogeneous defining ideals.

Ring elements are represented by their unique normal forms modulo the
cached reduced Groebner basis of I, so equality in R is literal equality
of polynomials.  Minimal primes are computed combinatorially for monomial
ideals, from user-supplied factor lists for principal ideals, or verified
from user-supplied candidates.
"""

from dataclasses import dataclass
from operator import is_

from .caps import Caps, DEFAULT_CAPS
from .groebner import (
    FreeVector,
    Ideal,
    intersect_ideals,
    krull_dimension,
    lead_covers,
    normal_form,
    radical_membership,
)
from .poly import Poly, RingSignature


class RingConstructionError(ValueError):
    pass


class UnsupportedIdealClass(ValueError):
    pass


class QuotientRing:
    """Standard-graded quotient of a polynomial ring by a homogeneous ideal.

    `memo` keeps verdicts that depend only on the ring and a presentation,
    charging each hit as a recomputation would be charged; an equal ring
    that is a different object starts empty.
    """

    def __init__(self, sig: RingSignature, ideal_gens, caps: Caps = None):
        self.sig = sig
        gens = tuple(g for g in ideal_gens if not g.is_zero)
        for g in gens:
            if g.sig != sig:
                raise RingConstructionError("defining generator over a foreign ring")
            if not g.is_homogeneous():
                raise RingConstructionError(f"inhomogeneous defining generator: {g}")
        self.ideal = Ideal(sig, gens)
        gb = self.ideal.gb(caps)
        if gb.contains_unit():
            raise RingConstructionError("defining ideal is the unit ideal")
        self.hypersurface = len(gb.generators) == 1
        self.dim = krull_dimension(self.ideal, caps)
        self._min_primes = None
        self._residue_module = None
        self._caches = {}

    # -- structural identity -------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.sig == other.sig
            and tuple(self.ideal.gb().generators) == tuple(other.ideal.gb().generators)
        )

    def __hash__(self):
        return hash((self.sig, tuple(self.ideal.gb().generators)))

    def __repr__(self):
        fld = self.sig.field
        vars_ = ",".join(self.sig.variables)
        return f"{fld!r}[{vars_}]/{self.ideal}"

    def memo(self, key, caps: Caps, compute):
        """`compute()` once per key, resolution cap and degree cap, with
        the charged replay of `Caps.memo`: verdicts and Fitting chains,
        shared by every run on this ring.

        The key gets `caps.resolution_length` and `caps.max_degree`
        appended, since a smaller cap can turn the answer into
        `CapExceeded`; the first run saw no degree above `caps.max_degree`,
        so neither would a recomputation.  So which task exits 3 never
        depends on what earlier tasks computed.  `caps` must not be None
        (callers pass `caps or DEFAULT_CAPS.fresh()`).  There is no lock:
        threads sharing a ring may compute an entry twice, and threads
        sharing a `Caps` may count each other's pairs; that mis-charges,
        but never gives a wrong answer.
        """
        key = key + (caps.resolution_length, caps.max_degree)
        return caps.memo(self._caches, key, compute)

    # -- element arithmetic ---------------------------------------------
    def reduce(self, p: Poly) -> Poly:
        if not self.ideal.generators:
            return p
        return normal_form(p, self.ideal.gb())

    def reduce_vector(self, v: FreeVector) -> FreeVector:
        """v reduced coordinatewise: v itself when already reduced, so a
        vector keeps its packed form."""
        coords = tuple(self.reduce(p) for p in v.coords)
        if all(map(is_, coords, v.coords)):
            return v
        return FreeVector(self.sig, coords)

    # -- distinguished ideals -------------------------------------------
    def irrelevant_ideal(self) -> "RIdeal":
        gens = tuple(Poly.variable(self.sig, v) for v in self.sig.variables)
        return RIdeal(self, gens, prime_status="verified")

    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.ideal.gb().generators)

    def is_reduced(self):
        """True / False when decidable cheaply, None when not certified."""
        if not self.ideal.generators:
            return True
        if self.is_monomial():
            return all(
                all(e <= 1 for e in g.leading_monomial())
                for g in self.ideal.gb().generators
            )
        return None

    # -- minimal primes ---------------------------------------------------
    def minimal_primes(self, factors=None, candidates=None, caps: Caps = None):
        """Complete irredundant minimal primes over the defining ideal.

        Supported classes: monomial ideals (combinatorial covers), principal
        ideals with a user-supplied factor list, or a user-supplied candidate
        list that is then verified.
        """
        if self._min_primes is not None and factors is None and candidates is None:
            return self._min_primes
        if candidates is not None:
            primes = self._verify_candidates(candidates, caps)
        elif self.is_monomial():
            primes = self._monomial_minimal_primes()
        elif factors is not None:
            primes = self._primes_from_factors(factors)
        else:
            raise UnsupportedIdealClass(
                "minimal primes need a monomial ideal, a factor list for a "
                "principal ideal, or a candidate list"
            )
        self._min_primes = primes
        return primes

    def _variable_prime(self, cover):
        gens = tuple(
            Poly.variable(self.sig, self.sig.variables[i]) for i in sorted(cover)
        )
        return RIdeal(self, gens, prime_status="verified")

    def _monomial_minimal_primes(self):
        covers = lead_covers(self.ideal)
        minimal = [c for c in covers if not any(d < c for d in covers)]
        minimal.sort(key=lambda c: (len(c), sorted(c)))
        return [self._variable_prime(c) for c in minimal]

    def _primes_from_factors(self, factors):
        if len(self.ideal.generators) != 1:
            raise UnsupportedIdealClass("factor list given for a non-principal ideal")
        f = self.ideal.generators[0]
        product = Poly.one(self.sig)
        for g in factors:
            product = product * g
        fld = self.sig.field
        scale = fld.div(f.leading_coefficient(), product.leading_coefficient())
        if product.scale(scale) != f:
            raise UnsupportedIdealClass(
                "supplied factors do not multiply to the defining generator"
            )
        seen = []
        for g in factors:
            g = g.monic()
            if g not in seen:
                seen.append(g)
        out = []
        for g in seen:
            status = "verified" if _is_variable(g) else "asserted"
            out.append(RIdeal(self, (self.reduce(g),), prime_status=status))
        return out

    def _verify_candidates(self, candidates, caps):
        primes = []
        for cand in candidates:
            if isinstance(cand, RIdeal):
                gens = cand.generators
            else:
                gens = tuple(cand)
            status = (
                "verified" if all(_is_variable(g) for g in gens) else "asserted"
            )
            primes.append(RIdeal(self, tuple(self.reduce(g) for g in gens), status))
        # each candidate must contain I
        for p in primes:
            amb = Ideal(self.sig, p.generators)
            for g in self.ideal.generators:
                if not amb.contains(g, caps):
                    raise UnsupportedIdealClass(
                        f"candidate {amb} does not contain the defining ideal: "
                        f"witness {g}"
                    )
        # no candidate contains another
        for i, p in enumerate(primes):
            for j, q in enumerate(primes):
                if i != j and p.contains_ideal(q):
                    raise UnsupportedIdealClass(
                        f"candidate {i} contains candidate {j}: list not irredundant"
                    )
        # intersection of candidates is inside the radical of I
        inter = Ideal(self.sig, primes[0].generators)
        for p in primes[1:]:
            inter = intersect_ideals(inter, Ideal(self.sig, p.generators), caps)
        for g in inter.generators:
            if not radical_membership(g, self.ideal, caps):
                raise UnsupportedIdealClass(
                    f"candidate intersection leaves the radical: witness {g}"
                )
        return primes

    # -- dimension theory -------------------------------------------------
    def is_equidimensional(self, caps: Caps = None) -> bool:
        primes = self.minimal_primes(caps=caps)
        dims = {krull_dimension(Ideal(self.sig, p.generators), caps) for p in primes}
        return len(dims) == 1

    def _require_equidimensional(self, caps: Caps = None):
        """The guard of every height read as a codimension."""
        if not self.is_equidimensional(caps):
            raise RingConstructionError(
                "height via codimension refused: ring is not equidimensional"
            )

    def height(self, j: "RIdeal", caps: Caps = None) -> int:
        """height(J) = dim R - dim R/J, guarded by equidimensionality."""
        self._require_equidimensional(caps)
        lifted = Ideal(self.sig, self.ideal.generators + j.generators)
        if not lifted.is_proper(caps):
            raise ValueError("height of the unit ideal")
        return self.dim - krull_dimension(lifted, caps)

    def monomial_primes_of_height_at_most(self, bound: int, caps: Caps = None):
        """All variable-generated primes containing I of height <= bound.

        Only available for monomial defining ideals, where these are
        enumerable; used to stock Y^1 checks without caller input.  The
        prime P on a cover c contains I, so height(P) = dim R - (nvars -
        |c|), read from |c|: P's generators drop the variables in I.
        """
        if not self.is_monomial():
            raise UnsupportedIdealClass("monomial prime enumeration needs a monomial ideal")
        self._require_equidimensional(caps)
        n = self.sig.nvars
        out = [self._variable_prime(c) for c in lead_covers(self.ideal)
               if self.dim - (n - len(c)) <= bound]
        out.sort(key=lambda p: (len(p.generators), str(p)))
        return out

    # -- depth, delegated to the homology engine -------------------------
    def residue_field_module(self):
        if self._residue_module is None:
            from .modules import cyclic

            self._residue_module = cyclic(self, self.irrelevant_ideal())
        return self._residue_module

    def depth(self, caps: Caps = None):
        from .homology import depth as module_depth
        from .modules import free_module

        return module_depth(free_module(self, (0,)), caps)

    def is_cohen_macaulay(self, caps: Caps = None) -> bool:
        """Sufficient certificate for Serre's condition (S2)."""
        return self.depth(caps) == self.dim


def _is_variable(g: Poly) -> bool:
    return (
        len(g.terms) == 1
        and sum(g.leading_monomial()) == 1
        and g.leading_coefficient() == g.sig.field.one
    )


@dataclass(frozen=True)
class RIdeal:
    """Ideal of a quotient ring, generators kept in normal form."""

    ring: QuotientRing
    generators: tuple
    prime_status: str = "unknown"  # verified | asserted | unknown

    def __post_init__(self):
        reduced = tuple(
            g for g in (self.ring.reduce(p) for p in self.generators) if not g.is_zero
        )
        object.__setattr__(self, "generators", reduced)

    def lift(self) -> Ideal:
        """The preimage ideal in the ambient polynomial ring."""
        return Ideal(self.ring.sig, self.ring.ideal.generators + self.generators)

    def lift_gb(self, caps: Caps = None):
        """Basis of the preimage ideal, kept in the run's store: the run
        pays for it when it computes it, and later uses are free."""
        caps = caps or DEFAULT_CAPS.fresh()
        return caps.task_memo(self.ring, ("rideal_gb", self.generators),
                              lambda: self.lift().gb(caps), once=True)

    def contains(self, p: Poly, caps: Caps = None) -> bool:
        return normal_form(p, self.lift_gb(caps)).is_zero

    def contains_ideal(self, other: "RIdeal", caps: Caps = None) -> bool:
        return all(self.contains(g, caps) for g in other.generators)

    def is_proper(self, caps: Caps = None) -> bool:
        return not self.lift_gb(caps).contains_unit()

    def sum(self, other: "RIdeal") -> "RIdeal":
        status = "unknown"
        return RIdeal(self.ring, self.generators + other.generators, status)

    def __str__(self):
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def make_ring(field, variables, ideal_texts, caps: Caps = None):
    """Build a quotient ring from polynomial strings; the usual entry point."""
    from .parse import parse_poly

    sig = RingSignature(field, tuple(variables))
    gens = [parse_poly(t, sig) if isinstance(t, str) else t for t in ideal_texts]
    return QuotientRing(sig, gens, caps)
