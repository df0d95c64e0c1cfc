"""Finitely presented graded modules over a quotient ring.

A module is a cokernel: generators with integer degrees and homogeneous
relation columns, everything reduced to normal form modulo the defining
ideal.  The operations here (kernel, tensor, dual, transpose,
pushforward, syzygy, minimize, biduality, Fitting ideals, local rank)
all reduce to span membership and syzygy computations over the ambient
polynomial ring.  A relation set D over R is one membership span
(`ring_membership_span`: the defining ideal times the free module as a
seeded block, plus D's vectors), reduced to a basis once; it seeds the
Nakayama scan (on a copy) and the tailed syzygy run.  Every kernel modulo
an image (kernels of maps, the zero test, Tor and Ext, exactness, the
surjectivity of an isomorphism candidate, and `minimize` on relations
with a constant entry) is one `subquotient` call: it takes the map out
and the relations, and builds both spans itself.  Only the resolution of
M over the ambient ring, behind the Hilbert series and depth, takes the
ring relations g*e_i as real columns (`hilbert.ambient_resolution`).

Sign and twist conventions: M = coker(P) with P acting from the column
side, entry (i, j) homogeneous of degree coldeg(j) - gendeg(i); dualizing
flips generator degrees, so Hom(M, R) lives inside a free module with
coordinate degrees -gendeg(i).
"""

from copy import copy
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import lcm, prod
from operator import mul

from .caps import Caps, DEFAULT_CAPS
from .groebner import (
    FreeVector,
    Ideal,
    IncrementalSpan,
    Span,
    _unscale,
    ideal_quotient,
)
from .hilbert import (
    hilbert_series_of_presentation,
    minimal_vector_subset,
    vector_degree,
)
from .poly import Poly
from .rings import QuotientRing, RIdeal


class DegreeError(ValueError):
    """A presentation or map fails graded consistency."""


class NotWellDefined(ValueError):
    """A matrix does not descend to a map of the presented modules."""


class NotTorsionless(ValueError):
    """Pushforward requested for a module that is not torsionless: the
    first Ext verdict of `serre.n_torsion_free`, Ext^1(Tr N, R) = 0, fails."""


# ----------------------------------------------------------------------
# presented modules


class PresentedModule:
    """M = coker(columns) in a graded free module over a quotient ring."""

    __slots__ = (
        "ring",
        "gen_degrees",
        "columns",
        "col_degrees",
        "_minimal",
    )

    def __init__(self, ring: QuotientRing, gen_degrees, columns, _minimal=False):
        self.ring = ring
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        g = len(self.gen_degrees)
        cleaned = []
        for col in columns:
            if col.rank != g:
                raise DegreeError(
                    f"relation column of rank {col.rank} against {g} generators"
                )
            col = ring.reduce_vector(col)
            if col.is_zero:
                continue
            cleaned.append(col)
        self.columns = tuple(cleaned)
        degs = []
        for col in self.columns:
            degs.append(vector_degree(col, self.gen_degrees))
        self.col_degrees = tuple(degs)
        self._minimal = _minimal

    # -- basics ----------------------------------------------------------
    @property
    def num_generators(self):
        return len(self.gen_degrees)

    @property
    def num_relations(self):
        return len(self.columns)

    def rows(self):
        return [
            [self.columns[j].coords[i] for j in range(self.num_relations)]
            for i in range(self.num_generators)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, PresentedModule)
            and self.ring == other.ring
            and self.gen_degrees == other.gen_degrees
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ring, self.gen_degrees, self.columns))

    def __repr__(self):
        return (
            f"PresentedModule({self.num_generators} gens {self.gen_degrees}, "
            f"{self.num_relations} relations)"
        )

    def matrix_strings(self):
        return [[str(p) for p in row] for row in self.rows()]

    def hilbert_series(self, caps: Caps = None):
        """Series of M as a module over the ambient polynomial ring."""
        return hilbert_series_of_presentation(
            self.ring, self.gen_degrees, self.columns, caps
        )


def apply_columns(ring: QuotientRing, columns, rank: int, vec: FreeVector):
    """sum vec_j * columns_j in R^rank, reduced: the image of `vec` under
    the matrix whose columns are given."""
    out = FreeVector.zero(ring.sig, rank)
    for j, p in enumerate(vec.coords):
        if not p.is_zero:
            out = out + columns[j].poly_mul(p)
    return ring.reduce_vector(out)


def composes_to_zero(ring: QuotientRing, left, right) -> bool:
    """The matrix with columns `left` kills every column of `right`: the
    composite left * right is zero over the ring."""
    rank = left[0].rank if left else 0
    return all(apply_columns(ring, left, rank, col).is_zero for col in right)


def has_unit_entry(columns) -> bool:
    """Some column has a nonzero constant entry."""
    return any(not p.is_zero and p.total_degree() == 0
               for col in columns for p in col.coords)


def ring_membership_span(ring, rank, vectors, caps: Caps = None) -> IncrementalSpan:
    """Membership in the R-span of `vectors` inside R^rank; as a relation
    set D it seeds `syzygies_over_ring` and the Nakayama scan.

    Built once per run (`Caps.task_memo`), keyed by rank and vectors: a
    repeat gets a shallow copy of the kept span, carrying `caps`, and is
    charged the pairs of the first build.  The span carries its key, which
    keys the syzygy runs made modulo it."""
    caps = caps or DEFAULT_CAPS.fresh()
    vectors = tuple(vectors)
    key = ("span", rank, vectors)

    def build():
        span = IncrementalSpan(ring.sig, rank, vectors, caps, ring.ideal)
        span.caps = None  # the memo holds no Caps
        return span

    span = copy(caps.task_memo(ring, key, build))
    span.caps, span.memo_key = caps, key
    return span


def syzygies_over_ring(ring: QuotientRing, rank: int, vectors, caps: Caps = None,
                       modulo=None):
    """Generators of {a in R^len(vectors) : sum a_i * vectors_i in D}.

    D is the membership span `modulo`, by default the zero submodule of
    R^rank, when these are the syzygies of `vectors` over R.  One augmented
    run seeded with D's basis, in which only `vectors` carry tails; its
    syzygies, reduced modulo the ring's ideal inside the run and nonzero,
    are the answer, each carrying its packed form: over QQ the reduced
    basis of the syzygy module, over GF(p) Schreyer generators.
    The run is made once per run of `caps` for equal vectors modulo an
    equal D (`Caps.task_memo`, keyed by D's `memo_key`; a D that has none
    is never memoized).
    """
    if not vectors:
        return []
    caps = caps or DEFAULT_CAPS.fresh()
    modulo = modulo or ring_membership_span(ring, rank, (), caps)

    def run():
        return Span(ring.sig, rank, vectors, caps, modulo).syzygies(ring.ideal, caps)

    if modulo.memo_key is None:
        return run()
    key = ("syz", rank, tuple(vectors), modulo.memo_key)
    return list(caps.task_memo(ring, key, run))


def minimal_generator_indices(ring, rank, vectors, degrees, modulo=None, caps=None):
    """Graded-Nakayama choice of generators of (span(vectors)+D)/D over R,
    D the membership span `modulo` (zero by default); the scan grows a
    copy charged to `caps`, so D is left as it was, and the copy, with
    the pairs it left above the top degree, is dropped on return."""
    # a span from `ring_membership_span` is already the caller's own copy
    span = copy(modulo) if modulo else ring_membership_span(ring, rank, (), caps)
    span.caps = caps or span.caps
    return minimal_vector_subset(span, vectors, degrees)


def subquotient(ring, coord_degrees, relations, outgoing=None, caps=None,
                want_module=True):
    """H = ker(R^rank -> R^t/E) modulo D, the R-span of `relations`, with
    rank = len(coord_degrees): the one kernel-mod-image routine.

    `outgoing` is the map out, (columns, t, columns of E); None is the zero
    map, whose kernel the unit vectors span.  The kernel is one syzygy run
    modulo E's membership span; each kernel generator is reduced once
    modulo D's, and H is zero exactly when no normal form survives.
    Returns H (None when not wanted), the chosen generators and the kernel
    generators.  The chosen generators are reduced representatives of
    their classes in R^rank: none when H = 0, and without the module only
    the first survivor, where the scan stops.  With the module, the
    survivors seed the Nakayama scan (on a copy of D) and the relation
    syzygies.
    """
    rank = len(coord_degrees)
    if rank == 0:
        zero = PresentedModule(ring, (), (), _minimal=True) if want_module else None
        return zero, [], []
    if outgoing is None:
        kernel_gens = [FreeVector.unit(ring.sig, rank, i) for i in range(rank)]
    else:
        cols, target_rank, target_relations = outgoing
        target = ring_membership_span(ring, target_rank, target_relations, caps)
        kernel_gens = syzygies_over_ring(ring, target_rank, cols, caps,
                                         modulo=target)
    den_span = ring_membership_span(ring, rank, relations, caps)
    # a normal form against a span seeded with ideal*S^rank is reduced in R
    reduced = []
    for v in kernel_gens:
        nf = den_span.normal_form(v)
        if not nf.is_zero:
            reduced.append(nf)
            if not want_module:
                break
    if not want_module:
        return None, reduced, kernel_gens
    if not reduced:
        return PresentedModule(ring, (), (), _minimal=True), [], kernel_gens
    degs = [vector_degree(v, coord_degrees) for v in reduced]
    kept = minimal_generator_indices(
        ring, rank, reduced, degs, modulo=den_span, caps=caps
    )
    gens = [reduced[i] for i in kept]
    rel_cols = syzygies_over_ring(ring, rank, gens, caps, modulo=den_span)
    module = PresentedModule(ring, [degs[i] for i in kept], rel_cols)
    return minimize(module, caps), gens, kernel_gens


def module_is_zero(m: PresentedModule, caps: Caps = None) -> bool:
    """Membership-certified: every generator lies in the relation span."""
    return not subquotient(m.ring, m.gen_degrees, m.columns, None, caps,
                           want_module=False)[1]


# ----------------------------------------------------------------------
# constructors


def cyclic(ring: QuotientRing, ideal) -> PresentedModule:
    """R/J with one generator in degree zero."""
    if isinstance(ideal, RIdeal):
        gens = ideal.generators
    else:
        gens = tuple(ideal)
    cols = [FreeVector(ring.sig, (g,)) for g in gens]
    return PresentedModule(ring, (0,), cols)


def free_module(ring: QuotientRing, degrees) -> PresentedModule:
    return PresentedModule(ring, tuple(degrees), (), _minimal=True)


def module_from_rows(ring, rows, gen_degrees) -> PresentedModule:
    """Cokernel of a row-major matrix of polynomials."""
    g = len(rows)
    if g != len(tuple(gen_degrees)):
        raise DegreeError("generator degree count does not match the row count")
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise DegreeError("ragged presentation matrix")
    cols = []
    for j in range(ncols):
        cols.append(FreeVector(ring.sig, tuple(rows[i][j] for i in range(g))))
    return PresentedModule(ring, tuple(gen_degrees), cols)


# ----------------------------------------------------------------------
# maps


class ModuleMap:
    """Degree-zero map between presented modules, given on generators.

    `columns[j]` is the image of the j-th source generator, a homogeneous
    vector over the target's generators.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns, check=True, caps: Caps = None):
        self.source = source
        self.target = target
        cols = []
        for j, col in enumerate(columns):
            col = target.ring.reduce_vector(col)
            if col.rank != target.num_generators:
                raise DegreeError("map column rank does not match the target")
            if not col.is_zero:
                d = vector_degree(col, target.gen_degrees)
                if d != source.gen_degrees[j]:
                    raise DegreeError(
                        f"map is not degree zero on generator {j}: {d} != "
                        f"{source.gen_degrees[j]}"
                    )
            cols.append(col)
        self.columns = tuple(cols)
        if check:
            self._check_well_defined(caps)

    def _check_well_defined(self, caps):
        if not self.source.columns:
            return
        span = ring_membership_span(
            self.target.ring, self.target.num_generators, self.target.columns, caps
        )
        for rel in self.source.columns:
            image = self.apply_vector(rel)
            if not span.contains(image):
                raise NotWellDefined(
                    f"relation {rel} does not map into the target relations"
                )

    def apply_vector(self, vec: FreeVector) -> FreeVector:
        """Image of an element of the source's free cover."""
        return apply_columns(self.target.ring, self.columns,
                             self.target.num_generators, vec)

    def cokernel(self) -> PresentedModule:
        return PresentedModule(
            self.target.ring,
            self.target.gen_degrees,
            tuple(self.columns) + tuple(self.target.columns),
        )


def kernel(phi: ModuleMap, caps: Caps = None):
    """Kernel of a map, as a presented module plus its inclusion map."""
    outgoing = (phi.columns, phi.target.num_generators, phi.target.columns)
    module, gens, _ = subquotient(phi.source.ring, phi.source.gen_degrees,
                                  phi.source.columns, outgoing, caps)
    return module, ModuleMap(module, phi.source, gens, check=False)


# ----------------------------------------------------------------------
# minimization


def minimize(m: PresentedModule, caps: Caps = None) -> PresentedModule:
    """Equivalent minimal presentation: minimal generators and relations.

    A relation with a constant entry makes a generator redundant; then M
    is presented afresh by `subquotient`, the Nakayama choice of minimal
    generators among the unit vectors modulo the relations, presented by
    their minimized syzygies.  Otherwise the columns are cut to a minimal
    generating set of the relation span.  Idempotent.
    """
    if m._minimal:
        return m
    if not m.columns:
        return PresentedModule(m.ring, m.gen_degrees, (), _minimal=True)
    if has_unit_entry(m.columns):
        return subquotient(m.ring, m.gen_degrees, m.columns, None, caps)[0]
    kept = minimal_generator_indices(m.ring, m.num_generators, m.columns,
                                     m.col_degrees, caps=caps)
    return PresentedModule(m.ring, m.gen_degrees, [m.columns[i] for i in kept],
                           _minimal=True)


# ----------------------------------------------------------------------
# tensor, dual, transpose


def _free_power(n: PresentedModule, shifts, sign: int):
    """Degrees and relation columns of N^r, twisted by +shifts (F (x) N,
    sign=+1) or -shifts (Hom(F, N), sign=-1); N's columns, already in normal
    form, repeat block-diagonally, one block per shift."""
    gn = n.num_generators
    degs = tuple(sign * s + d for s in shifts for d in n.gen_degrees)
    zero = (Poly.zero(n.ring.sig),)
    cols = [
        FreeVector(n.ring.sig, zero * (b * gn) + col.coords
                   + zero * ((len(shifts) - b - 1) * gn))
        for b in range(len(shifts))
        for col in n.columns
    ]
    return degs, cols


def _tensor_id(matrix, n: PresentedModule, source_degs, target_degs):
    """Columns of A (x) id_N on grids (s, t), A given by the coordinate
    tuples of its columns; every nonzero column must be of degree zero."""
    sig = n.ring.sig
    gn = n.num_generators
    zero = Poly.zero(sig)
    cols = []
    for a in matrix:
        for t in range(gn):
            coords = [zero] * (len(a) * gn)
            coords[t::gn] = a
            col = FreeVector(sig, coords)
            j = len(cols)
            if not col.is_zero:
                d = vector_degree(col, target_degs)
                if d != source_degs[j]:
                    raise DegreeError(f"map is not degree zero on generator "
                                      f"{j}: {d} != {source_degs[j]}")
            cols.append(col)
    return cols


def tensor(a: PresentedModule, b: PresentedModule) -> PresentedModule:
    """A (x) B: generator grid with block relations [P_A (x) id | id (x) P_B]."""
    if a.ring != b.ring:
        raise DegreeError("tensor product across different rings")
    degs, id_pb = _free_power(b, a.gen_degrees, 1)
    col_degs, _ = _free_power(b, a.col_degrees, 1)
    pa_id = _tensor_id([c.coords for c in a.columns], b, col_degs, degs)
    return PresentedModule(a.ring, degs, pa_id + id_pb)


def _transposed(sig, vectors, rank: int):
    """The vectors (v_j[i])_j for i < rank: the i-th coordinate of every
    vector, so rank-0 vectors when there are none."""
    return [FreeVector(sig, tuple(v.coords[i] for v in vectors))
            for i in range(rank)]


def _dual_pair(m: PresentedModule, caps: Caps = None):
    """Hom(M, R) as kernel of the transposed presentation, plus embedding.

    The embedding vectors live in the free module with coordinate degrees
    -gendeg(i); coordinate i of a functional is its value on generator i.
    """
    ring = m.ring
    f0_dual = free_module(ring, tuple(-d for d in m.gen_degrees))
    f1_dual = free_module(ring, tuple(-d for d in m.col_degrees))
    cols = _transposed(ring.sig, m.columns, m.num_generators)
    psi = ModuleMap(f0_dual, f1_dual, cols, check=False)
    return kernel(psi, caps)


def dual(m: PresentedModule, caps: Caps = None) -> PresentedModule:
    return _dual_pair(m, caps)[0]


def transpose(m: PresentedModule, caps: Caps = None) -> PresentedModule:
    """Cokernel of the dualized presentation map, returned minimized."""
    degs = tuple(-d for d in m.col_degrees)
    cols = _transposed(m.ring.sig, m.columns, m.num_generators)
    return minimize(PresentedModule(m.ring, degs, cols), caps)


# ----------------------------------------------------------------------
# biduality and pushforward


@dataclass
class BidualityReport:
    """The natural map M -> M**, as the evaluation map M -> R^s at the
    minimal generators of M* (`map`), with its kernel and its cokernel
    M** / M presented minimally."""

    map: ModuleMap
    kernel: PresentedModule
    cokernel: PresentedModule

    @property
    def torsionless(self):
        return self.kernel.num_generators == 0

    @property
    def reflexive(self):
        return self.torsionless and self.cokernel.num_generators == 0


def _evaluation(m: PresentedModule, caps: Caps = None):
    """M* and the evaluation map M -> R^s, e_j -> (phi_k(e_j))_k, where
    phi_1..phi_s are the minimal generators of M* that `_dual_pair` chose
    and R^s has coordinate degrees -deg(phi_k).  The map is checked well
    defined, which certifies that every phi_k kills M's relations."""
    mstar, incl = _dual_pair(m, caps)
    target = free_module(m.ring, tuple(-d for d in mstar.gen_degrees))
    cols = _transposed(m.ring.sig, incl.columns, m.num_generators)
    return mstar, ModuleMap(m, target, cols, caps=caps)


def biduality(m: PresentedModule, caps: Caps = None) -> BidualityReport:
    """The natural map M -> M**, with its kernel and cokernel presented.

    M** = Hom(M*, R) sits inside R^s as the kernel of M*'s transposed
    presentation, and M -> M** is the evaluation map into it.  So the
    kernel is the evaluation map's kernel, and the cokernel is one
    `subquotient`: that kernel modulo the evaluation columns.
    """
    mstar, emap = _evaluation(m, caps)
    ker, _ = kernel(emap, caps)
    dual_presentation = _transposed(m.ring.sig, mstar.columns, mstar.num_generators)
    coker = subquotient(m.ring, emap.target.gen_degrees, emap.columns,
                        (dual_presentation, mstar.num_relations, ()), caps)[0]
    return BidualityReport(emap, ker, coker)


@dataclass
class PushforwardResult:
    """N1 with the embedding 0 -> N -> R^s -> N1 -> 0; the certificate is
    Ext^1(N1, R) = 0, recomputed on N1."""
    module: PresentedModule
    embedding: ModuleMap      # N -> R^s, evaluation at the minimal generators of N*
    target_free: PresentedModule
    ext1_certificate: object  # homology report for Ext^1(N1, R) = 0


def pushforward(n: PresentedModule, caps: Caps = None) -> PushforwardResult:
    """Embed a torsionless module N by evaluation at the minimal generators
    of N* (`_evaluation`), with cokernel N1.

    Dualizing 0 -> N -> R^s -> N1 -> 0 gives R^s* -> N* -> Ext^1(N1, R) -> 0,
    and R^s* -> N* is onto since the functionals generate N*; so
    Ext^1(N1, R) = 0, which is recomputed and attached as the result's one
    certificate.  N must be torsionless, i.e. Ext^1(Tr N, R) = 0, read
    from the memoized verdict of `serre.n_torsion_free`; otherwise
    `NotTorsionless` is raised before anything is built.
    """
    from .homology import ext
    from .serre import n_torsion_free

    if not n_torsion_free(n, 1, caps).all_vanish:
        raise NotTorsionless(
            "module is not torsionless: Ext^1(transpose, R) is nonzero")
    _, emb = _evaluation(n, caps)
    n1 = minimize(emb.cokernel(), caps)
    recheck = ext(n1, free_module(n.ring, (0,)), 1, caps)
    if not recheck.is_zero:
        raise RuntimeError("pushforward postcondition failed: Ext^1(N1, R) != 0")
    return PushforwardResult(n1, emb, emb.target, recheck)


# ----------------------------------------------------------------------
# Fitting ideals and local rank


def fitting_ideal(m: PresentedModule, i: int, caps: Caps = None) -> Ideal:
    """Fitt_i(M): the ideal of (g - i)-minors of the presentation matrix.

    The generators are the minors reduced in the ring, zeros and repeats
    dropped (first occurrence kept), row sets outer and column sets inner,
    both in `combinations` order.  A minor on rows (r0, r1, ...) expands
    along r0 into minors on the row tail (r1, ...), shared by every row set
    with that tail; so they are built bottom-up from the empty minor 1, one
    row at a time.  Level k holds each k-minor on a length-k row tail once,
    as a term dict; only the level below is kept.  Expansion never divides.
    The cancel callback of `caps` is polled once per row tail.

    Minors are built on integers, a monomial packed into one int in base
    B = size * e + 1, e the largest exponent in any entry: no exponent of a
    minor exceeds size * e < B, so a monomial product is one addition with
    no carry.  The cofactor sign is folded into the top row, and each
    minor is normalized once (`fld.normalized`).  Over QQ each row is
    scaled by the lcm of its denominators; a minor on row set T is divided
    by the product of T's scales when it is unpacked into `Fraction`s.
    """
    sig = m.ring.sig
    g = m.num_generators
    size = g - i
    if size <= 0:
        return Ideal(sig, (Poly.one(sig),))
    r = m.num_relations
    if size > g or size > r:
        return Ideal(sig, ())
    fld = sig.field
    mat = m.rows()
    base = size * max((e for row in mat for q in row for mono, _ in q.terms
                       for e in mono), default=0) + 1
    weights = [base ** v for v in range(sig.nvars)]
    scales, rows = [], []  # rows[k][parity][col]: packed terms, sign folded in
    for row in mat:
        scale = reduce(lcm, (c.denominator for q in row for _, c in q.terms), 1)
        packed = [[(sum(map(mul, mono, weights)), c.numerator * (scale // c.denominator))
                   for mono, c in q.terms] for q in row]
        scales.append(scale)
        rows.append((packed, [[(mo, -c) for mo, c in q] for q in packed]))
    level = {((), ()): {0: 1}}
    for k in range(1, size + 1):
        below, level = level, {}
        for tail in combinations(range(size - k, g), k):
            if caps is not None:
                caps.poll()
            top, rest = rows[tail[0]], tail[1:]
            for cols in combinations(range(r), k):
                acc = {}
                for j, col in enumerate(cols):
                    lower = below[rest, cols[:j] + cols[j + 1:]].items()
                    for m1, c1 in top[j % 2][col]:
                        for m2, c2 in lower:
                            mono = m1 + m2
                            acc[mono] = acc.get(mono, 0) + c1 * c2
                level[tail, cols] = fld.normalized(acc)
    exponents, minors = {}, {}
    for (tail, _), packed in level.items():
        terms = {}
        for mo, c in packed.items():
            if mo not in exponents:
                exponents[mo] = tuple(mo // w % base for w in weights)
            terms[exponents[mo]] = c
        terms = _unscale(terms, prod(scales[t] for t in tail), fld)
        d = m.ring.reduce(Poly.from_dict(sig, terms))
        if not d.is_zero:
            minors.setdefault(d.terms, d)
    return Ideal(sig, tuple(minors.values()))


@dataclass
class LocalizedRank:
    kind: str                # "free" | "not_free"
    rank: object = None
    witness: str = ""
    certificate: object = None  # the element outside p killing Fitt_{r-1}


def localized_rank(m: PresentedModule, p: RIdeal, caps: Caps = None) -> LocalizedRank:
    """Freeness and rank of M at a prime, by the two-sided Fitting test.

    M_p is free of rank r exactly when Fitt_r is not contained in p and
    Fitt_{r-1} dies locally, i.e. some c outside p multiplies Fitt_{r-1}
    into the defining ideal; c is searched in the annihilator-quotient
    (I : Fitt_{r-1}), one `ideal_quotient` call: the syzygies of the
    vector of Fitt_{r-1}'s generators modulo I.  The Fitting ideals of the
    minimized presentation are kept in the ring's memo, keyed by that
    presentation, so further primes and equal modules reuse them;
    `minimize` still runs on every call.
    """
    if p.prime_status not in ("verified", "asserted"):
        raise ValueError("localized rank needs a verified or asserted prime")
    caps = caps or DEFAULT_CAPS.fresh()
    if not p.is_proper(caps):
        raise ValueError("localized rank at the unit ideal")
    ring = m.ring
    mm = minimize(m, caps)
    g = mm.num_generators
    r = below = None
    for i in range(g + 1):
        fitt = ring.memo(("fitting", mm.gen_degrees, mm.columns, i), caps,
                         lambda: fitting_ideal(mm, i, caps))
        if not all(p.contains(f, caps) for f in fitt.generators):
            r = i
            break
        below = fitt
    if r is None:
        raise RuntimeError("Fitting chain never left the prime; Fitt_g = (1) must")
    if r == 0:
        return LocalizedRank("free", 0, witness="Fitt_0 survives outside the prime")
    if not below.generators:
        return LocalizedRank(
            "free", r, witness=f"Fitt_{r - 1} vanishes in the ring"
        )
    for c in ideal_quotient(ring.ideal, below, caps).generators:
        if not p.contains(c, caps):
            return LocalizedRank(
                "free",
                r,
                witness=f"{c} kills Fitt_{r - 1} outside the prime",
                certificate=c,
            )
    return LocalizedRank(
        "not_free",
        None,
        witness=(
            f"rank would have to be {r}, but Fitt_{r - 1} does not localize "
            f"to zero: (I : Fitt_{r - 1}) lies inside the prime"
        ),
    )


# ----------------------------------------------------------------------
# syzygies of a module


def syzygy(m: PresentedModule, n: int, caps: Caps = None) -> PresentedModule:
    """n-th syzygy along the minimal graded free resolution."""
    if n < 0:
        raise ValueError("negative syzygy index")
    if n == 0:
        return minimize(m, caps)
    from .homology import resolution

    res = resolution(m, caps)
    res.extend_to(n + 1, caps)
    return res.syzygy_module(n)
