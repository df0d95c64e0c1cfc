"""Independent oracles: plain linear algebra over graded pieces.

Nothing here runs the Groebner engine; membership and kernel
dimensions come from row reduction of coefficient matrices, the
monomial-order oracles are a sort key on exponent tuples (`compare`)
and the definition unrolled term by term (`grevlex_oracle`), the
basis check reads the basis entries through the engine's exit boundary
and reduces every S-pair with its own division loop, the
minors are Leibniz sums over plain term dicts, and two presentations are
matched entry by entry over every row and column permutation.  The three
exceptions run the engine by another route: `ext_depth`, depth by its
definition, the first nonzero Ext^i(k, M), resolves k over R where
`depth` resolves M over S; `radical_oracle` decides radical membership
by the Rabinowitsch trick over an extended ring, where the engine
saturates by repeated ideal quotients; `biduality_by_lift` presents M**
as the dual of M* and lifts the evaluation vectors into it, where the
engine reads M -> M** as the evaluation map into R^s.  `span_lift` reads
a lift off a tailed `Span`'s basis, which the engine no longer does, and
`fully_tailed_syzygies` runs the tailed pair queue with every pair, as
the engine does only over QQ.  `height_one_witness_by_search` finds an
edge's height-one prime by searching every variable prime of height <= 1,
where the engine reads it off the edge's two primes.  `laurent_div_exact`
and `is_free_combination_of` test a Hilbert-series difference for stable
equivalence, which the engine never needs.  `periodicity_onset_reference`
is the older onset rule that forked on the field: entrywise repetition
d_{k+2} = d_k at every computed step from the onset on, or over GF(p) on a
hypersurface also the engine's matrix-factorization test.
`is_torsion_reference` is the older torsion test: Fitt_0 of the minimized
module, computed afresh and tested against every minimal prime, where the
engine reads the rank at each prime off the ring's kept Fitting chain.
`rigidity_torsion_entry_reference` is the older torsion hypothesis of the
rigidity-vanishing pipeline: every Tor_i module built for i = 1..window,
and a status rule of its own beside `tor_vanishing`'s.
`syzygies_over_ring_reference` is the older route of syzygies over R: the
bare `Span` syzygies over S, each reduced modulo the ring coordinate by
coordinate (`QuotientRing.reduce_vector`), where the engine reduces them
modulo I*S^count inside the run.  `first_reducer_reference` finds a
term's reducer by a plain scan of its position list, exponent tuple
against exponent tuple, where the engine remembers the first hit of each
term for the life of a run.  `span_syzygies_full_reference` is the older
route of a `Span`'s syzygies: the tailed run's whole augmented basis
minimalized and tail-reduced, span block too, where the engine
interreduces only the syzygy block.  `nakayama_scan_reference` is the
older graded-Nakayama scan step: every pending pair up to the offered
degree treated before the offered vector is reduced, where the engine
reduces first and treats pairs only while the remainder is nonzero.
"""

from itertools import combinations, permutations
from math import comb

from reflextor.caps import Caps
from reflextor.groebner import (
    FreeVector, Span, _PairQueue, _as_terms, _buchberger_terms, _by_position, _entry,
    _reduce_full, _reduce_value, _terms_to_vector, _unscale, normal_form,
)
from reflextor.linalg import rank
from reflextor.orders import degree, mono_divides
from reflextor.poly import Poly


def random_form(sig, rng, d, terms, prime):
    """A form of degree d with `terms` random monomials, coefficients drawn
    from 1..prime-1."""
    monos = rng.sample(all_monomials(sig.nvars, d), terms)
    return Poly.from_dict(sig, {m: sig.field.from_int(rng.randrange(1, prime))
                                for m in monos})


def series_over_powers(numerator, power, step, length):
    """First `length` coefficients of numerator(t) / (1 - t^step)^power."""
    inverse = [0] * length
    for k in range(0, (length - 1) // step + 1):
        inverse[k * step] = comb(power - 1 + k, k)
    return [sum(numerator[i] * inverse[j - i]
                for i in range(min(j, len(numerator) - 1) + 1))
            for j in range(length)]


def all_monomials(nvars, d):
    if d < 0:
        return []
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        out.extend((e,) + rest for rest in all_monomials(nvars - 1, d - e))
    return out


def poly_coeff_vector(p, basis_index, fld):
    vec = [fld.zero] * len(basis_index)
    for m, c in p.terms:
        vec[basis_index[m]] = c
    return vec


def in_row_span(rows, target, fld) -> bool:
    """Is `target` a linear combination of `rows`?"""
    if all(fld.is_zero(x) for x in target):
        return True
    if not rows:
        return False
    return rank(rows, fld) == rank(list(rows) + [list(target)], fld)


def homogeneous_membership_oracle(gens, f):
    """Is homogeneous f in the ideal generated by homogeneous gens?

    Exact per degree: membership is solvable inside the graded piece.
    """
    sig = f.sig
    fld = sig.field
    if f.is_zero:
        return True
    d = f.homogeneous_degree()
    basis = all_monomials(sig.nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        if g.is_zero:
            continue
        shift = d - g.homogeneous_degree()
        for m in all_monomials(sig.nvars, shift):
            rows.append(poly_coeff_vector(g * Poly.monomial(sig, m), index, fld))
    return in_row_span(rows, poly_coeff_vector(f, index, fld), fld)


def ideal_piece_dimension(gens, d):
    """dim of the degree-d piece of the ideal generated by homogeneous gens."""
    sig = gens[0].sig
    fld = sig.field
    basis = all_monomials(sig.nvars, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        if g.is_zero:
            continue
        shift = d - g.homogeneous_degree()
        for m in all_monomials(sig.nvars, shift):
            rows.append(poly_coeff_vector(g * Poly.monomial(sig, m), index, fld))
    return rank(rows, fld)


def _vector_coeff_vector(v, degs, target_degree, fld, nvars):
    index = {}
    offset = 0
    pieces = []
    for i, cd in enumerate(degs):
        monos = all_monomials(nvars, target_degree - cd)
        pieces.append(monos)
        for m in monos:
            index[(i, m)] = offset
            offset += 1
    vec = [fld.zero] * offset
    for i, p in enumerate(v.coords):
        for m, c in p.terms:
            vec[index[(i, m)]] = c
    return vec, offset


def submodule_piece_dimension(vectors, coord_degrees, target_degree):
    """dim of the degree-d piece of the span of homogeneous vectors."""
    if not vectors:
        return 0
    sig = vectors[0].sig
    fld = sig.field
    nvars = sig.nvars
    from reflextor.hilbert import vector_degree

    rows = []
    for v in vectors:
        dv = vector_degree(v, coord_degrees)
        for m in all_monomials(nvars, target_degree - dv):
            image = v.poly_mul(Poly.monomial(sig, m))
            vec, _ = _vector_coeff_vector(image, coord_degrees, target_degree,
                                          fld, nvars)
            rows.append(vec)
    return rank(rows, fld)


def kernel_piece_dimension(vectors, coord_degrees, target_degree):
    """dim of the degree-d syzygy space of the given homogeneous vectors."""
    if not vectors:
        return 0
    sig = vectors[0].sig
    fld = sig.field
    nvars = sig.nvars
    from reflextor.hilbert import vector_degree

    columns = []
    for v in vectors:
        dv = vector_degree(v, coord_degrees)
        for m in all_monomials(nvars, target_degree - dv):
            image = v.poly_mul(Poly.monomial(sig, m))
            vec, _ = _vector_coeff_vector(image, coord_degrees, target_degree,
                                          fld, nvars)
            columns.append(vec)
    if not columns:
        return 0
    return len(columns) - rank(columns, fld)


LT, EQ, GT = -1, 0, 1


def sort_key(m):
    """Key with key(a) < key(b) iff a < b in grevlex: the degree, then the
    exponents from the last variable to the first, negated."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def compare(m1, m2) -> int:
    """LT, EQ or GT for m1 against m2 in grevlex."""
    if len(m1) != len(m2):
        raise ValueError(f"monomial length mismatch: {len(m1)} vs {len(m2)}")
    k1, k2 = sort_key(m1), sort_key(m2)
    return LT if k1 < k2 else GT if k1 > k2 else EQ


def grevlex_oracle(m1, m2):
    """The definition, unrolled: degree first, then the last differing
    exponent decides reversed."""
    d1, d2 = degree(m1), degree(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for a, b in zip(reversed(m1), reversed(m2)):
        if a != b:
            return 1 if a < b else -1
    return 0


def all_pairs_groebner_check(gb):
    """Buchberger's criterion with no shortcut: every same-position S-pair
    of the basis entries top-reduces to zero.  Works on term dicts
    {(position, exponents): coefficient} alone, read off each entry's
    vector as the engine's exit boundary (`_terms_to_vector`) hands it
    out, with position over term order and its own leads, S-vectors and
    division."""
    fld = gb.sig.field

    def lead(terms):
        return max(terms, key=lambda t: (-t[0], sort_key(t[1])))

    def axpy(acc, factor, shift, terms):
        for (p, m), c in terms.items():
            t = (p, tuple(a + b for a, b in zip(m, shift)))
            v = fld.sub(acc.get(t, fld.zero), fld.mul(factor, c))
            if fld.is_zero(v):
                acc.pop(t, None)
            else:
                acc[t] = v

    vecs = [
        {(i, m): c for i, p in enumerate(_terms_to_vector(e[2], gb.sig, gb.rank).coords)
         for m, c in p.terms}
        for e in gb._entries
    ]
    leads = [lead(v) for v in vecs]
    for j in range(len(vecs)):
        for i in range(j):
            (pi, mi), (pj, mj) = leads[i], leads[j]
            if pi != pj:
                continue
            lcm = tuple(max(a, b) for a, b in zip(mi, mj))
            work = {}
            axpy(work, fld.neg(fld.inv(vecs[i][leads[i]])),
                 tuple(a - b for a, b in zip(lcm, mi)), vecs[i])
            axpy(work, fld.inv(vecs[j][leads[j]]),
                 tuple(a - b for a, b in zip(lcm, mj)), vecs[j])
            while work:
                p, m = t = lead(work)
                for v, (q, lm) in zip(vecs, leads):
                    if q == p and all(a <= b for a, b in zip(lm, m)):
                        shift = tuple(a - b for a, b in zip(m, lm))
                        axpy(work, fld.div(work[t], v[(q, lm)]), shift, v)
                        break
                else:
                    return False
    return True


def fitting_minors_oracle(rows, size):
    """Every size-minor of the matrix `rows` (lists of Polys), row sets outer
    and column sets inner, by the Leibniz formula: the sum over permutations
    of the signed products of entries, with its own sign (inversion count)
    and its own product of term dicts."""
    sig = rows[0][0].sig
    fld = sig.field
    minors = []
    for rs in combinations(range(len(rows)), size):
        for cs in combinations(range(len(rows[0])), size):
            total = {}
            for perm in permutations(range(size)):
                inversions = sum(1 for a in range(size) for b in range(a)
                                 if perm[b] > perm[a])
                product = {(0,) * sig.nvars: fld.one if inversions % 2 == 0
                           else fld.neg(fld.one)}
                for a, b in enumerate(perm):
                    step = {}
                    for m1, c1 in product.items():
                        for m2, c2 in rows[rs[a]][cs[b]].as_dict().items():
                            m = tuple(x + y for x, y in zip(m1, m2))
                            step[m] = fld.add(step.get(m, fld.zero), fld.mul(c1, c2))
                    product = step
                for m, c in product.items():
                    total[m] = fld.add(total.get(m, fld.zero), c)
            minors.append(Poly.from_dict(sig, total))
    return minors


def presentations_equivalent_up_to_permutation(a, b) -> bool:
    """Entrywise match after some row/column permutation and column scaling."""
    if a.ring != b.ring:
        return False
    ga, ra = a.num_generators, a.num_relations
    gb, rb = b.num_generators, b.num_relations
    if (ga, ra) != (gb, rb):
        return False
    if ga > 6 or ra > 6:
        raise ValueError("permutation equivalence is only for small matrices")
    fld = a.ring.sig.field
    rows_a, rows_b = a.rows(), b.rows()
    for rp in permutations(range(ga)):
        if any(a.gen_degrees[rp[i]] - b.gen_degrees[i]
               != a.gen_degrees[rp[0]] - b.gen_degrees[0] for i in range(ga)):
            continue
        for cp in permutations(range(ra)):
            ok = True
            for j in range(ra):
                scale = None
                for i in range(ga):
                    lhs = rows_a[rp[i]][cp[j]]
                    rhs = rows_b[i][j]
                    if lhs.is_zero != rhs.is_zero:
                        ok = False
                        break
                    if lhs.is_zero:
                        continue
                    if lhs.terms == tuple() or len(lhs.terms) != len(rhs.terms):
                        ok = False
                        break
                    ratio = fld.div(lhs.leading_coefficient(),
                                    rhs.leading_coefficient())
                    if rhs.scale(ratio) != lhs:
                        ok = False
                        break
                    if scale is None:
                        scale = ratio
                    elif scale != ratio:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def ext_depth(m, caps=None):
    """min{i : Ext^i(k, M) != 0}, resolving k over R; depth(0) is infinite."""
    from reflextor.homology import INFINITE_DEPTH, ext
    from reflextor.modules import module_is_zero

    if module_is_zero(m, caps):
        return INFINITE_DEPTH
    k = m.ring.residue_field_module()
    for i in range(m.ring.dim + 1):
        if not ext(k, m, i, caps, want_module=False).is_zero:
            return i
    raise AssertionError("no Ext^i(k, M) nonzero up to dim R")


def radical_oracle(f, ideal, caps=None):
    """f in rad(I), decided by 1 in I + (1 - t*f) over S[t]."""
    from reflextor.groebner import buchberger, normal_form
    from reflextor.poly import RingSignature

    if f.is_zero:
        return True
    sig = ideal.sig
    tname = "t"
    while tname in sig.variables:
        tname += "_"
    ext = RingSignature(sig.field, sig.variables + (tname,))

    def lift(p):
        return Poly.from_dict(ext, {m + (0,): c for m, c in p.terms})

    t = Poly.variable(ext, tname)
    gens = [lift(g) for g in ideal.generators]
    gens.append(Poly.one(ext) - t * lift(f))
    return normal_form(Poly.one(ext), buchberger(gens, caps)).is_zero


def biduality_by_lift(m, caps=None):
    """Kernel and cokernel of M -> M**, both minimized: M** presented as
    the dual of M*, each generator's evaluation vector lifted by a tailed
    `Span` onto M**'s generators, and the kernel and cokernel of that map."""
    from reflextor.groebner import FreeVector, Span
    from reflextor.modules import (
        ModuleMap, PresentedModule, _dual_pair, _transposed, kernel, minimize,
        ring_membership_span,
    )

    ring, g = m.ring, m.num_generators
    if g == 0:
        zero = PresentedModule(ring, (), (), _minimal=True)
        return zero, zero
    mstar, incl_star = _dual_pair(m, caps)
    mstarstar, incl_star2 = _dual_pair(mstar, caps)
    s = mstar.num_generators
    lift_span = Span(ring.sig, s, incl_star2.columns, caps,
                     ring_membership_span(ring, s, (), caps))
    cols = []
    for ev in _transposed(ring.sig, incl_star.columns, g):
        if ev.is_zero:
            cols.append(FreeVector.zero(ring.sig, mstarstar.num_generators))
            continue
        coeffs = span_lift(lift_span, ev)
        assert coeffs is not None, "an evaluation vector lies outside M**"
        cols.append(FreeVector(ring.sig, coeffs))
    bmap = ModuleMap(m, mstarstar, cols, caps=caps)
    ker, _ = kernel(bmap, caps)
    return minimize(ker, caps), minimize(bmap.cokernel(), caps)


def span_lift(span, v):
    """Coefficients a with v = sum a_i * vectors_i modulo D, or None, for a
    `Span` of `vectors` modulo D: v reduced against the tailed run's basis
    keeps no term before the tail block exactly when it is a member, and
    then its tail, negated, is a lift.  Over GF(p) the basis's tail block
    holds Schreyer generators, so the lift is valid but not canonical."""
    fld, tail = span.sig.field, span.rank << span.sig.packing.pos_shift
    nf, scale = _reduce_value(v, span.rank, _by_position(span._aug), {}, fld)
    if any(t < tail for t in nf):
        return None
    nf = _unscale(nf, scale, fld)
    coeffs = {t - tail: fld.neg(c) for t, c in nf.items()}
    return list(_terms_to_vector(coeffs, span.sig, span.count).coords)


def fully_tailed_syzygies(sig, rank, vectors, modulo=None):
    """The syzygies of `vectors` in S^rank modulo the `IncrementalSpan`
    `modulo`, from a tailed run that pairs every entry (`tail_pos=None`),
    tail against tail too: the reduced basis of the syzygy module."""
    fld, pk = sig.field, sig.packing
    inputs = []
    for i, v in enumerate(vectors):
        den, terms = _as_terms(v, rank, fld)
        terms[pk.pack(rank + i, (0,) * sig.nvars)] = den
        inputs.append(terms)
    seeded = modulo._entries if modulo is not None else ()
    tail = rank << pk.pos_shift
    entries = _buchberger_terms(inputs, sig, Caps(), rank + len(vectors), seeded)
    return [_terms_to_vector(_unscale({t - tail: c for t, c in terms.items()}, lc, fld),
                             sig, len(vectors))
            for lt, lc, terms, _ in entries if lt >= tail]


def first_reducer_reference(index, t, pk):
    """The first entry, in basis order, of the position list of the packed
    term t whose lead divides t, or None: a plain scan, testing exponent
    tuples."""
    pos, m = t >> pk.pos_shift, pk.mono(t)
    for entry in index.get(pos, ()):
        if mono_divides(entry[3][1], m):
            return entry
    return None


def nakayama_scan_reference(span, v, degree) -> bool:
    """`span.add(v, degree)` by the older route: the scan's queue drained to
    `degree` first, then v reduced against its entries and a remainder
    pushed.  True exactly when v was not already in the span."""
    span.memo_key = None
    if span._queue is None:
        span._queue = _PairQueue(span._basis, span.sig, span.caps, span.rank,
                                 graded=True)
    span._queue.drain(degree)
    nf, _ = _reduce_value(v, span.rank, span._queue.index, span._queue.first,
                          span.sig.field, span.caps)
    if nf:
        span._queue.push(nf, degree)
    return bool(nf)


def _interreduce_all(queue):
    """The reduced basis of a drained `_PairQueue`'s entries, every block
    minimalized and tail-reduced: the older `_PairQueue.reduced`, which
    treated the span block of a tailed run like the syzygy block."""
    basis, pk, n_seeded = queue.basis, queue.pk, queue.n_seeded
    kept, index, fresh = [], {}, {}
    for k in sorted(range(len(basis)), key=lambda k: basis[k][0], reverse=True):
        p, tk = basis[k][3][0], basis[k][0] + pk.deg_guard
        same = index.setdefault(p, [])
        if p >= queue.tail_pos or all((tk - e[0]) & pk.guards for e in same):
            kept.append(k)
            same.append(basis[k])
            if k >= n_seeded:
                fresh.setdefault(p, []).append(basis[k][0])
    reduced = []
    for k in kept:
        lt, lc, terms, _ = basis[k]
        if k < n_seeded and not any(
            pk.divides(lead, t) for t in terms for lead in fresh.get(t >> pk.pos_shift, ())
        ):
            reduced.append(basis[k])
            continue
        tail = dict(terms)
        del tail[lt]
        nf, scale = _reduce_full(tail, index, {}, pk, queue.fld, queue.caps)
        reduced.append(_entry({lt: lc * scale, **nf}, pk, queue.fld))
    reduced.sort(key=lambda e: e[0], reverse=True)
    return reduced


def span_syzygies_full_reference(sig, rank, vectors, caps=None, modulo=None, ideal=None):
    """`Span(sig, rank, vectors, caps, modulo).syzygies(ideal, caps)` by the
    older route: the same tailed run (Schreyer generators over GF(p)), its
    whole augmented basis interreduced (`_interreduce_all`), then each
    syzygy reduced modulo `ideal` one coordinate at a time, zeros
    dropped."""
    fld, pk = sig.field, sig.packing
    queue = _PairQueue(modulo._entries if modulo is not None else (), sig,
                       caps or Caps(), rank + len(vectors),
                       tail_pos=rank if fld.characteristic else None)
    for i, v in enumerate(vectors):
        den, terms = _as_terms(v, rank, fld)
        terms[pk.pack(rank + i, (0,) * sig.nvars)] = den
        queue.push(terms)
    queue.drain()
    tail = rank << pk.pos_shift
    out = []
    for lt, lc, terms, _ in _interreduce_all(queue):
        if lt >= tail:
            v = _terms_to_vector(_unscale({t - tail: c for t, c in terms.items()}, lc, fld),
                                 sig, len(vectors))
            if ideal is not None:
                v = FreeVector(sig, [normal_form(c, ideal.gb(caps)) for c in v.coords])
            if not v.is_zero:
                out.append(v)
    return out


def syzygies_over_ring_reference(ring, rank, vectors, caps=None, modulo=None):
    """Generators of {a in R^len(vectors) : sum a_i * vectors_i in D}, D the
    membership span `modulo` (zero by default): the syzygies of a bare
    `Span` run, each reduced in R one coordinate at a time, zeros dropped."""
    from reflextor.modules import ring_membership_span

    caps = caps or Caps()
    modulo = modulo or ring_membership_span(ring, rank, (), caps)
    syz = (ring.reduce_vector(s)
           for s in Span(ring.sig, rank, vectors, caps, modulo).syzygies())
    return [s for s in syz if not s.is_zero]


def height_one_witness_by_search(ring, p, q, caps=None):
    """A height<=1 prime containing p + q on a monomial ring, the first
    among every variable prime of height <= 1 in (generator count, text)
    order that contains the sum; None on any other ring."""
    if not ring.is_monomial():
        return None
    s = p.sum(q)
    for cand in ring.monomial_primes_of_height_at_most(1, caps):
        if cand.contains_ideal(s, caps):
            return cand
    return None


def steps_match(res, k):
    """d_{k+2} = d_k entry by entry, and the shifts of F_{k+1}, F_{k+2} are
    those of F_{k-1}, F_k each moved by one constant."""
    a, b = res.differential(k), res.differential(k + 2)
    if not a or len(a) != len(b) or any(x.coords != y.coords for x, y in zip(a, b)):
        return False
    return all(len({y - x for x, y in zip(res.shift(j), res.shift(j + 2))}) == 1
               for j in (k - 1, k))


def periodicity_onset_reference(res):
    """The smallest step i with d_{k+2} = d_k for every computed k >= i (at
    least one), or over GF(p) on a hypersurface the first i where
    `res._factorizes(i)`; None when neither fires."""
    top = res.length_computed()
    gf = res.ring.hypersurface and res.ring.sig.field.characteristic
    for i in range(1, top):
        if (gf and res._factorizes(i)) or (i < top - 1 and all(
                steps_match(res, k) for k in range(i, top - 1))):
            return i
    return None


def is_torsion_reference(t, caps=None):
    """T vanishes at every minimal prime: Fitt_0 of the minimized
    presentation lies inside no minimal prime of the ring."""
    from reflextor.modules import fitting_ideal, minimize

    caps = caps or Caps()
    primes = t.ring.minimal_primes(caps=caps)
    fitt0 = fitting_ideal(minimize(t, caps), 0, caps)
    return not any(all(p.contains(g, caps) for g in fitt0.generators)
                   for p in primes)


def rigidity_torsion_entry_reference(m, n, window, caps=None):
    """(status, detail) of the `tor-eventually-torsion` entry: the first
    i <= window whose Tor_i(M, N) module is not torsion fails it;
    otherwise it is verified when the Tor walk certified every index or
    M has finite projective dimension, and asserted if not."""
    from reflextor.homology import is_torsion, tor, tor_vanishing

    caps = caps or Caps()
    for i in range(1, window + 1):
        if not is_torsion(tor(m, n, i, caps).module, caps):
            return "failed", f"Tor_{i} is not torsion"
    v = tor_vanishing(m, n, window, caps)
    certified = v.all_zero and v.certificate in ("finite_pd", "periodicity")
    status = "verified" if certified or v.certificate == "finite_pd" else "asserted"
    return status, (f"torsion for i = 1..{window}"
                    + ("; tail certified by " + v.certificate if certified
                       else "; tail asserted (window only)"))


def laurent_div_exact(num: dict, den: dict):
    """Exact quotient num/den in Z[t, 1/t], or None when not divisible."""
    if not den:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    num = dict(num)
    quot = {}
    den_top = max(den)
    den_lead = den[den_top]
    lowest = (min(num) - min(den)) if num else 0
    while num:
        top = max(num)
        lead = num[top]
        if lead % den_lead != 0:
            return None
        c = lead // den_lead
        d = top - den_top
        if d < lowest:
            return None  # quotient exponents would descend without end
        quot[d] = quot.get(d, 0) + c
        for e, k in den.items():
            num[e + d] = num.get(e + d, 0) - c * k
            if num[e + d] == 0:
                del num[e + d]
    return quot


def is_free_combination_of(series, ring_numerator: dict):
    """Quotient of a `HilbertSeries` by the ring's numerator when it divides
    exactly, else None.

    A Z[t,1/t] quotient exhibits the series as an integer combination of
    shifted free-module series, the stable-equivalence signature.
    """
    if series.is_zero:
        return {}
    return laurent_div_exact(series.as_dict(), ring_numerator)
