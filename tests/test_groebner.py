"""Buchberger, normal forms, syzygies, and the derived ideal operations."""

import random

import pytest

from reflextor.caps import Caps, CapExceeded, ComputationCancelled
from reflextor.fields import GF, QQ
from reflextor.groebner import (
    FreeVector,
    GroebnerBasis,
    Ideal,
    IncrementalSpan,
    Span,
    _as_terms,
    _buchberger_terms,
    _ideal_block,
    buchberger,
    ideal_quotient,
    intersect_ideals,
    krull_dimension,
    normal_form,
    radical_membership,
    verify_groebner,
)
from reflextor.hilbert import vector_degree
from reflextor.orders import GREVLEX, LEX, elimination, mono_divides
from reflextor.parse import parse_poly
from reflextor.poly import Poly, RingSignature, SignatureMismatch
from reflextor.rings import make_ring

from oracles import (
    all_monomials,
    all_pairs_groebner_check,
    fully_tailed_syzygies,
    homogeneous_membership_oracle,
    ideal_piece_dimension,
    kernel_piece_dimension,
    radical_oracle,
    span_lift,
    submodule_piece_dimension,
)


def assert_verified(gb):
    """gb passes verify_groebner and the all-pairs oracle, and the two agree
    on every basis made by dropping one entry; returns those verdicts."""
    assert verify_groebner(gb) and all_pairs_groebner_check(gb)
    entries = gb._entries
    verdicts = []
    for k in range(len(entries)):
        dropped = GroebnerBasis(gb.sig, gb.rank, [], True, entries[:k] + entries[k + 1:])
        verdicts.append(verify_groebner(dropped))
        assert verdicts[-1] == all_pairs_groebner_check(dropped)
    return verdicts


@pytest.fixture(scope="module")
def sig4():
    return RingSignature(QQ, ("x", "y", "z", "w"))


@pytest.fixture(scope="module")
def p4(sig4):
    return lambda s: parse_poly(s, sig4)


class TestBuchberger:
    def test_already_a_basis(self, sig4, p4):
        gb = buchberger([p4("x"), p4("y")])
        assert [str(g) for g in gb.generators] == ["y", "x"] or [
            str(g) for g in gb.generators
        ] == ["x", "y"]
        assert gb.reduced
        assert_verified(gb)

    def test_twisted_cubic_lex_elimination(self):
        sig = RingSignature(QQ, ("x", "y", "z"), LEX)
        gens = [parse_poly("x^2 - y", sig), parse_poly("x^3 - z", sig)]
        gb = buchberger(gens)
        relation = parse_poly("y^3 - z^2", sig)
        assert normal_form(relation, gb).is_zero
        assert any(g == relation or g == -relation for g in gb.generators)
        assert_verified(gb)

    def test_monomial_ideal_unchanged(self, sig4, p4):
        gb = buchberger([p4("x*y")])
        assert [str(g) for g in gb.generators] == ["x*y"]

    def test_mixed_signature_rejected(self, sig4):
        other = RingSignature(QQ, ("x", "y"))
        with pytest.raises(SignatureMismatch):
            buchberger([Poly.variable(sig4, "x"), Poly.variable(other, "x")])

    def test_mixed_rank_rejected(self, sig4, p4):
        v1 = FreeVector(sig4, (p4("x"), p4("y")))
        v2 = FreeVector(sig4, (p4("x"),))
        with pytest.raises(ValueError):
            buchberger([v1, v2])

    @pytest.mark.parametrize("order", [GREVLEX, LEX, elimination(2)],
                             ids=["grevlex", "lex", "elim2"])
    def test_verifier_matches_all_pairs_oracle(self, order):
        # homogenized cyclic-4: long chains for the verifier's walk
        sig = RingSignature(QQ, ("a", "b", "c", "d", "h"), order)
        gens = [parse_poly(t, sig) for t in (
            "a + b + c + d", "a*b + b*c + c*d + d*a",
            "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - h^4",
        )]
        # some entries are S-pair remainders; a basis without one fails
        assert not all(assert_verified(buchberger(gens)))
        # coprime leads in one position of S^2 prove nothing: b*(a, 1) - a*(b, 0)
        a, b, one, zero = (parse_poly(t, sig) for t in ("a", "b", "1", "0"))
        entries = [buchberger([FreeVector(sig, v)])._entries[0]
                   for v in ((a, one), (b, zero))]
        split = GroebnerBasis(sig, 2, [], True, entries)
        assert not verify_groebner(split) and not all_pairs_groebner_check(split)

    def test_spair_recheck_on_random_ideals(self, sig4, p4):
        import random

        rng = random.Random(20260808)
        vars_ = ["x", "y", "z", "w"]
        for _ in range(25):
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = [
                    f"{rng.randint(1, 3)}*{rng.choice(vars_)}^{rng.randint(1, 2)}"
                    f"*{rng.choice(vars_)}"
                    for _ in range(2)
                ]
                gens.append(p4(" + ".join(terms)))
            gb = buchberger([g for g in gens if not g.is_zero])
            assert_verified(gb)


class TestNormalForm:
    def test_reduction_drops_divisible_terms(self, sig4, p4):
        gb = buchberger([p4("x*y")])
        assert normal_form(p4("x^2*y + z"), gb) == p4("z")

    def test_membership(self, sig4, p4):
        gb = buchberger([p4("x^2 - y"), p4("y^2 - z*w")])
        member = p4("(x^2 - y) * x + (y^2 - z*w) * w")
        assert normal_form(member, gb).is_zero

    def test_idempotent(self, sig4, p4):
        gb = buchberger([p4("x^2 - y"), p4("x*z - w")])
        f = p4("x^3*z + y*w - 2*z")
        once = normal_form(f, gb)
        assert normal_form(once, gb) == once

    def test_rank_mismatch(self, sig4, p4):
        gb = buchberger([FreeVector(sig4, (p4("x"), p4("y")))])
        with pytest.raises(ValueError):
            normal_form(p4("x"), gb)

    def test_reduced_input_is_returned_itself(self, sig4, p4):
        gb = buchberger([p4("x^2 - y*z"), p4("x*y - w^2")])
        f = p4("y^3 + 3*z*w - 1/2*x*z")
        assert normal_form(f, gb) is f
        gb = buchberger([FreeVector(sig4, (p4("x"), p4("y"))),
                         FreeVector(sig4, (p4("0"), p4("z")))])
        v = FreeVector(sig4, (p4("y + z"), p4("x + w")))
        assert normal_form(v, gb) is v

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=["QQ", "GF32003"])
    def test_seeded_forms_against_the_membership_oracle(self, fld, seed):
        rng = random.Random(seed)
        sig = RingSignature(fld, ("x", "y", "z", "w"))

        def form(d, size):
            return Poly.from_dict(sig, {
                m: fld.from_rational(rng.randint(-9, 9), rng.randint(1, 5))
                for m in rng.sample(all_monomials(4, d), size)})

        gens = [g for g in (form(2, 3) for _ in range(3)) if not g.is_zero]
        gb = buchberger(gens)
        leads = [g.leading_monomial() for g in gb.generators]
        for _ in range(6):
            f = form(3, 6)
            nf = normal_form(f, gb)
            assert not any(mono_divides(lm, m) for m, _ in nf.terms for lm in leads)
            assert homogeneous_membership_oracle(gens, f - nf)
            assert normal_form(nf, gb) is nf


class TestSyzygies:
    def test_koszul(self, sig4, p4):
        gens = [p4("x"), p4("y")]
        syz = Span(sig4, 1, gens).syzygies()
        assert len(syz) == 1
        s = syz[0]
        combo = gens[0] * s.coords[0] + gens[1] * s.coords[1]
        assert combo.is_zero
        assert {str(p) for p in s.coords} == {"y", "-x"}

    def test_single_unit_generator_has_no_syzygies(self, sig4, p4):
        assert Span(sig4, 1, [p4("1")]).syzygies() == []

    def test_syzygies_annihilate_generators(self, sig4, p4):
        gens = [p4("x*y - z^2"), p4("y*z - w^2"), p4("x*w - y^2")]
        for s in Span(sig4, 1, gens).syzygies():
            combo = Poly.zero(sig4)
            for g, c in zip(gens, s.coords):
                combo = combo + g * c
            assert combo.is_zero

    def test_quotient_ring_syzygy_example(self, ring_a, pa):
        # over Q[x,y,z,w]/(xy): the syzygies of (y, z, w) include the Koszul
        # ones and (x, 0, 0), since x*y = 0 in the quotient
        from reflextor.modules import ring_membership_span, syzygies_over_ring

        gens = [pa("y"), pa("z"), pa("w")]
        vectors = [FreeVector(ring_a.sig, (g,)) for g in gens]
        syz = syzygies_over_ring(ring_a, 1, vectors)
        span = ring_membership_span(ring_a, 3, syz)
        extra = FreeVector(ring_a.sig, (pa("x"), pa("0"), pa("0")))
        koszul = FreeVector(ring_a.sig, (pa("z"), pa("-y"), pa("0")))
        assert span.contains(extra)
        assert span.contains(koszul)
        for s in syz:
            total = Poly.zero(ring_a.sig)
            for g, c in zip(gens, s.coords):
                total = total + g * c
            assert ring_a.reduce(total).is_zero


class TestPrimeFieldBasis:
    def test_buchberger_over_gf7(self):
        from reflextor.fields import GF

        sig = RingSignature(GF(7), ("x", "y"))
        gens = [parse_poly("x^2 + 3*y", sig), parse_poly("x*y + 5", sig)]
        gb = buchberger(gens)
        assert_verified(gb)
        combo = gens[0] * parse_poly("y", sig) - gens[1] * parse_poly("x", sig)
        assert normal_form(combo, gb).is_zero

    def test_membership_characteristic_sensitive(self):
        from reflextor.fields import GF

        sig2 = RingSignature(GF(2), ("x", "y"))
        gb = buchberger([parse_poly("x + y", sig2)])
        # (x + y)^2 = x^2 + y^2 in characteristic two
        assert normal_form(parse_poly("x^2 + y^2", sig2), gb).is_zero


class TestSpan:
    def test_lift_members(self, sig4, p4):
        span = Span(sig4, 1, [p4("x^2 - y"), p4("y^2 - z")])
        target = p4("(x^2 - y)*z + (y^2 - z)*(x + 1)")
        coeffs = span_lift(span, target)
        assert coeffs is not None
        rebuilt = coeffs[0] * p4("x^2 - y") + coeffs[1] * p4("y^2 - z")
        assert rebuilt == target

    def test_lift_nonmembers(self, sig4, p4):
        span = Span(sig4, 1, [p4("x^2"), p4("y^2")])
        assert span_lift(span, p4("x")) is None

    def test_incremental_matches_batch(self, sig4, p4):
        vectors = [p4("x^2 - y"), p4("x*z - w"), p4("y*w - z^2")]
        batch = buchberger(vectors)
        inc = IncrementalSpan(sig4, 1, vectors)
        probes = [p4("x^3 - x*y"), p4("z"), p4("x^2*z - y*z"), p4("w^2")]
        for f in probes:
            assert inc.contains(f) == normal_form(f, batch).is_zero

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_incremental_vectors_match_batch_and_oracle(self, fld):
        # homogeneous vectors of S^2 with coordinate degrees (0, 1), scanned
        # one at a time by ascending degree into the graded pair queue
        sig = RingSignature(fld, ("x", "y", "z"))
        rng = random.Random(20261018)
        coord_degrees = (0, 1)

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(3, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(-3, 3)) for m in picks})

        def vector(d):
            return FreeVector(sig, tuple(form(d - cd) for cd in coord_degrees))

        vectors = [vector(d) for d in (2, 2, 3, 3)]
        caps = Caps()
        inc = IncrementalSpan(sig, 2, caps=caps)
        for v in vectors:
            inc.add(v, vector_degree(v, coord_degrees))
        assert_verified(GroebnerBasis(sig, 2, [], True, inc._entries))

        x, y = (Poly.variable(sig, n) for n in ("x", "y"))
        member = vectors[0].poly_mul(x * y) - vectors[2].poly_mul(x + y)
        batch = buchberger(vectors)
        for probe in [member] + [vector(d) for d in (2, 3, 4, 4)]:
            assert inc.contains(probe) == normal_form(probe, batch).is_zero
        assert inc.contains(member)

        leads = [lead for (_, _, _, lead, _) in inc._entries]
        for d in range(6):
            lead_dim = sum(
                any(p == i and mono_divides(lm, m) for (p, lm) in leads)
                for i, cd in enumerate(coord_degrees)
                for m in all_monomials(sig.nvars, d - cd)
            )
            assert lead_dim == submodule_piece_dimension(vectors, coord_degrees, d)

        ticks = caps._pairs_used
        assert not inc.add(member, vector_degree(member, coord_degrees))
        assert caps._pairs_used == ticks

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_entries_settle_a_partly_drained_scan(self, fld):
        # a scan step leaves the pairs above its degree pending; reading the
        # entries drains them and interreduces, so the span is the one-run
        # basis
        sig = RingSignature(fld, ("x", "y", "z"))
        rng = random.Random(20261022)
        coord_degrees = (0, 1)

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(3, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 5)) for m in picks})

        def vector(d):
            return FreeVector(sig, tuple(form(d - cd) for cd in coord_degrees))

        vectors = [vector(d) for d in (1, 2, 2)]
        inc = IncrementalSpan(sig, 2)
        for v in vectors:
            assert inc.add(v, vector_degree(v, coord_degrees))
        assert inc._queue.heap
        extra = vector(3)
        inc.add(extra, vector_degree(extra, coord_degrees))
        entries = inc._entries
        assert inc._queue is None
        assert_verified(GroebnerBasis(sig, 2, [], True, entries))
        inputs = [_as_terms(v, 2, fld)[1] for v in vectors + [extra]]
        assert entries == _buchberger_terms(inputs, sig, Caps(), 2)


class TestManyPositionSpan:
    """A tailed run whose leads lie in every one of its 11 positions: the
    position index must file each entry where the reducers look for it."""

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_against_the_oracles(self, fld):
        sig = RingSignature(fld, ("x", "y", "z"))
        rng = random.Random(20261023)
        coord_degrees = (0, 1, 1)
        zero = Poly.zero(sig)

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(2, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 5)) for m in picks})

        def vector(d):
            return FreeVector(sig, tuple(form(d - cd) for cd in coord_degrees))

        vectors = [vector(d) for d in (1, 1, 1, 2, 2, 2, 2, 2)]
        q = parse_poly("x*y - z^2", sig)
        d_vectors = [vector(2)]
        modulo = IncrementalSpan(sig, 3, d_vectors, ideal=Ideal(sig, (q,)))
        # D's generators for the oracles: its vector and q*e_i
        d_gens = d_vectors + [
            FreeVector(sig, tuple(q if j == i else zero for j in range(3)))
            for i in range(3)
        ]
        span = Span(sig, 3, vectors, modulo=modulo)
        rank = 3 + len(vectors)
        degrees = [vector_degree(v, coord_degrees) for v in vectors]
        syzygies = span.syzygies()

        def in_d(v, d):
            return (submodule_piece_dimension(d_gens + [v], coord_degrees, d)
                    == submodule_piece_dimension(d_gens, coord_degrees, d))

        if fld is QQ:
            # q*e_i is a syzygy modulo D of each vector alone, so every tail
            # position holds a lead
            assert {lead[0] for _, _, _, lead, _ in span._aug} == set(range(rank))
            gb = GroebnerBasis(sig, rank, [], True, span._aug)
            assert verify_groebner(gb) and all_pairs_groebner_check(gb)
        else:
            # syzygy entries join no pair, so only the span block, with its
            # tails cut off, is a basis: of span(vectors) + D
            tail = 3 << sig.packing.pos_shift
            block = [(lt, lc, {t: c for t, c in terms.items() if t < tail}, lead, dk)
                     for lt, lc, terms, lead, dk in span._aug if lt < tail]
            gb = GroebnerBasis(sig, 3, [], True, block)
            assert verify_groebner(gb) and all_pairs_groebner_check(gb)
            # each Schreyer generator is a syzygy modulo D, and they span the
            # pieces of the reduced basis a run with every pair gives
            for s in syzygies:
                image = sum((v.poly_mul(a) for a, v in zip(s.coords, vectors)),
                            FreeVector.zero(sig, 3))
                assert in_d(image, vector_degree(s, degrees))
            full = fully_tailed_syzygies(sig, 3, vectors, modulo)
            for d in range(1, 5):
                assert (submodule_piece_dimension(syzygies, degrees, d)
                        == submodule_piece_dimension(full, degrees, d)
                        == submodule_piece_dimension(syzygies + full, degrees, d)), d

        x, y, z = (Poly.variable(sig, n) for n in ("x", "y", "z"))
        members = [
            vectors[0].poly_mul(x * y) + vectors[4].poly_mul(z) - vectors[7].poly_mul(y)
            + d_vectors[0].poly_mul(x),
            vectors[1].poly_mul(z * z) + FreeVector(sig, (zero, q, zero)),
            vectors[2].poly_mul(x * x) - vectors[3].poly_mul(y + z),
        ]
        for probe in members:
            coeffs = span_lift(span, probe)
            assert coeffs is not None
            rebuilt = sum((v.poly_mul(a) for a, v in zip(coeffs, vectors)),
                          FreeVector.zero(sig, 3))
            assert in_d(probe - rebuilt, vector_degree(probe, coord_degrees))
        verdicts = []
        for probe in [vector(1) for _ in range(3)] + [vector(2) for _ in range(3)]:
            d = vector_degree(probe, coord_degrees)
            verdicts.append(span_lift(span, probe) is None)
            assert verdicts[-1] == (
                submodule_piece_dimension(vectors + d_gens + [probe], coord_degrees, d)
                > submodule_piece_dimension(vectors + d_gens, coord_degrees, d))
        assert any(verdicts)

        for d in range(1, 5):
            want = (kernel_piece_dimension(vectors + d_gens, coord_degrees, d)
                    - kernel_piece_dimension(d_gens, coord_degrees, d))
            assert submodule_piece_dimension(syzygies, degrees, d) == want, d


class TestSeededQueue:
    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_seeded_run_equals_one_run(self, fld):
        # a reduced basis is unique, so seeding may change the work done but
        # not one entry of the result
        sig = RingSignature(fld, ("x", "y", "z"))
        rng = random.Random(20261019)
        coord_degrees = (0, 1)

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(3, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 5)) for m in picks})

        def vector(d):
            return _as_terms(
                FreeVector(sig, tuple(form(d - cd) for cd in coord_degrees)), 2, fld
            )[1]

        def run(inputs, seeded=()):
            return _buchberger_terms(inputs, sig, Caps(), 2, seeded=seeded)

        a = [vector(d) for d in (2, 2, 3)]
        b = [vector(d) for d in (2, 3, 3)]
        assert run(b, seeded=run(a)) == run(a + b)

        x, y, z = (Poly.variable(sig, n) for n in ("x", "y", "z"))
        ideal = Ideal(sig, (x * x - y * z, y * y * z - z * z * z))
        block = _ideal_block(ideal, 2)
        assert len(block) == 2 * len(ideal.gb()._entries)
        relations = [
            _as_terms(FreeVector(sig, (g, Poly.zero(sig))), 2, fld)[1]
            for g in ideal.generators
        ] + [
            _as_terms(FreeVector(sig, (Poly.zero(sig), g)), 2, fld)[1]
            for g in ideal.generators
        ]
        xyz = FreeVector(sig, (x * y * z, Poly.zero(sig)))
        c = b[:1] + [_as_terms(xyz, 2, fld)[1]]
        seeded = run(c, seeded=block)
        assert seeded == run(c + relations)
        # some block entries come through untouched and some do not
        assert any(e in seeded for e in block)
        assert not all(e in seeded for e in block)


class TestIdealOnlySpan:
    """An `IncrementalSpan` with no vectors is the ideal block as it stands."""

    @staticmethod
    def _setting(fld):
        sig = RingSignature(fld, ("x", "y", "z"))
        x, y, z = (Poly.variable(sig, n) for n in ("x", "y", "z"))
        return sig, Ideal(sig, (x * x - y * z, y * y * z - z * z * z, x * y * z))

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_passes_verify_groebner(self, fld):
        sig, ideal = self._setting(fld)
        span = IncrementalSpan(sig, 3, (), ideal=ideal)
        assert span._entries
        assert_verified(GroebnerBasis(sig, 3, [], True, span._entries))

    @pytest.mark.parametrize("fld", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_agrees_with_the_pair_queue(self, fld):
        sig, ideal = self._setting(fld)
        rank = 2
        old = _buchberger_terms([], sig, Caps(), rank,
                                seeded=_ideal_block(ideal, rank))
        span = IncrementalSpan(sig, rank, (), ideal=ideal)
        assert len(span._entries) == len(old)
        assert all(e in old for e in span._entries)

        rng = random.Random(20261021)

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(3, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 9)) for m in picks})

        gens = ideal.generators
        probes = [FreeVector(sig, (form(2), form(3))) for _ in range(4)]
        # members: combinations of g*e_i
        probes += [
            FreeVector(sig, (gens[0] * form(1) + gens[2], gens[1] * form(2)))
            for _ in range(4)
        ]
        old_gb = GroebnerBasis(sig, rank, [], True, old)
        verdicts = [span.contains(v) for v in probes]
        assert verdicts == [normal_form(v, old_gb).is_zero for v in probes]
        assert verdicts[4:] == [True] * 4 and not all(verdicts[:4])


class TestIdealOperations:
    def test_quotient_by_element(self, sig4, p4):
        ideal = Ideal(sig4, (p4("x*y"),))
        q = ideal_quotient(ideal, Ideal(sig4, (p4("x"),)))
        gb = buchberger(list(q.generators))
        assert normal_form(p4("y"), gb).is_zero
        assert not normal_form(p4("x"), gb).is_zero

    def test_quotient_by_unit_is_identity(self, sig4, p4):
        ideal = Ideal(sig4, (p4("x^2 - y"), p4("z*w")))
        q = ideal_quotient(ideal, Ideal(sig4, (p4("1"),)))
        gb_q = buchberger(list(q.generators))
        gb_i = ideal.gb()
        for g in ideal.generators:
            assert normal_form(g, gb_q).is_zero
        for g in q.generators:
            assert normal_form(g, gb_i).is_zero

    def test_quotient_square_by_element(self, sig4, p4):
        q = ideal_quotient(Ideal(sig4, (p4("x^2"),)), Ideal(sig4, (p4("x"),)))
        gb = buchberger(list(q.generators))
        assert normal_form(p4("x"), gb).is_zero
        assert not normal_form(p4("1"), gb).is_zero

    def test_quotient_by_zero_rejected(self, sig4, p4):
        with pytest.raises(ValueError):
            ideal_quotient(Ideal(sig4, (p4("x"),)), Ideal(sig4, (Poly.zero(sig4),)))

    def test_dimension_hypersurface(self, sig4, p4):
        assert krull_dimension(Ideal(sig4, (p4("x*y"),))) == 3

    def test_dimension_zero_ideal(self, sig4):
        assert krull_dimension(Ideal(sig4, ())) == 4

    def test_dimension_two_planes(self):
        sig = RingSignature(QQ, ("x", "y", "u", "v"))
        gens = tuple(parse_poly(t, sig) for t in ("x*u", "x*v", "y*u", "y*v"))
        assert krull_dimension(Ideal(sig, gens)) == 2

    def test_dimension_unit_ideal_rejected(self, sig4, p4):
        with pytest.raises(ValueError):
            krull_dimension(Ideal(sig4, (p4("1"),)))

    def test_dimension_invariant_under_variable_permutation(self, sig4):
        import random

        rng = random.Random(11)
        texts = ["x*y", "z^2 - w*y"]
        base = Ideal(sig4, tuple(parse_poly(t, sig4) for t in texts))
        d = krull_dimension(base)
        names = list(sig4.variables)
        for _ in range(4):
            perm = list(range(4))
            rng.shuffle(perm)
            permuted_sig = sig4
            gens = tuple(
                Poly.from_dict(
                    sig4, {tuple(m[perm[i]] for i in range(4)): c for m, c in g.terms}
                )
                for g in base.generators
            )
            assert krull_dimension(Ideal(permuted_sig, gens)) == d

    def test_radical_membership(self, sig4, p4):
        assert radical_membership(p4("x"), Ideal(sig4, (p4("x^2"),)))
        assert not radical_membership(p4("z"), Ideal(sig4, (p4("x*y"),)))

    def test_radical_membership_mixed_powers(self):
        sig = RingSignature(QQ, ("x", "y", "u", "v"))
        ideal = Ideal(sig, (parse_poly("x^2*u^3", sig),))
        assert radical_membership(parse_poly("x*u", sig), ideal)

    def test_intersection(self, sig4, p4):
        inter = intersect_ideals(Ideal(sig4, (p4("x"),)), Ideal(sig4, (p4("y"),)))
        gb = buchberger(list(inter.generators))
        assert normal_form(p4("x*y"), gb).is_zero
        assert not normal_form(p4("x"), gb).is_zero


class TestIntersectionAndQuotientOracle:
    """Piece dimensions of I cap J and (I : J), d <= 5, on seeded homogeneous
    ideals over GF(32003)[x,y,z,w], against degree-truncated linear algebra:
    dim (A cap B)_d = dim A_d + dim B_d - dim (A + B)_d."""

    @pytest.fixture(scope="class")
    def sig(self):
        return RingSignature(GF(32003), ("x", "y", "z", "w"))

    @staticmethod
    def forms(sig, rng, degrees):
        fld = sig.field
        out = []
        for d in degrees:
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(3, len(monos)))
            out.append(Poly.from_dict(
                sig, {m: fld.from_int(rng.randint(1, 32002)) for m in picks}))
        return out

    @staticmethod
    def dims(gens):
        gens = list(gens)
        return [ideal_piece_dimension(gens, d) if gens else 0 for d in range(6)]

    def meet_dims(self, a, b):
        return [x + y - z for x, y, z in
                zip(self.dims(a), self.dims(b), self.dims(list(a) + list(b)))]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_intersection(self, sig, seed):
        rng = random.Random(seed)
        common = self.forms(sig, rng, (1,))[0]
        a = [common * f for f in self.forms(sig, rng, (1, 2))]
        b = self.forms(sig, rng, (2,)) + [common * f for f in self.forms(sig, rng, (2,))]
        inter = intersect_ideals(Ideal(sig, tuple(a)), Ideal(sig, tuple(b)))
        assert all(g.is_homogeneous() for g in inter.generators)
        assert self.dims(inter.generators) == self.meet_dims(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_quotient_by_two_generators(self, sig, seed):
        rng = random.Random(seed)
        j = self.forms(sig, rng, (1, 1))
        k = self.forms(sig, rng, (2,))[0]
        ideal = Ideal(sig, (j[0] * k, j[1] * k) + tuple(self.forms(sig, rng, (3,))))
        quot = ideal_quotient(ideal, Ideal(sig, tuple(j)))
        singles = [ideal_quotient(ideal, Ideal(sig, (g,))).generators for g in j]
        assert all(g.is_homogeneous() for g in quot.generators)
        assert self.dims(quot.generators) == self.meet_dims(*singles)
        assert self.dims(quot.generators) != self.dims(ideal.generators)


class TestRadicalSaturationOracle:
    """Radical membership by saturation, (I : f^oo) = (1), against the
    Rabinowitsch route 1 in I + (1 - t*f) over an extended ring, over QQ
    and GF(32003)."""

    # the fixtures' rings (variables, ideal); their minimal-prime
    # intersections are checked both ways
    FIXTURES = {
        "hypersurface": ("x y z w", ["x*y"]),
        "plane-node": ("x y", ["x*y"]),
        "two-planes": ("x y u v", ["x*u", "x*v", "y*u", "y*v"]),
    }
    # (variables, ideal, f, f in the radical)
    CASES = [
        ("x y z w", ["x^2"], "x", True),
        ("x y u v", ["x^2*u^3"], "x*u", True),
        ("x y z", ["x^3", "y^3", "z^3"], "x + y + z", True),
        ("x y z", ["x^2 - y^2", "x*z - y*z"], "x - y", False),
        ("x y", ["x^2"], "y", False),
        ("x y", ["x^2*y", "x*y^2"], "x*y", True),
        ("x y z w", ["x*y"], "z", False),
        ("x y", ["x*y"], "x + y", False),
        ("x y z", ["x^2 - y*z", "y^2", "z^2"], "x", True),
        # inhomogeneous
        ("x y", ["x^3 - 3*x^2 + 3*x - 1"], "x - 1", True),
        ("x y", ["x^2 - 1"], "x", False),
        ("x y", ["x^2*y^2 - 2*x*y + 1"], "x*y - 1", True),
        ("x y", ["x^3 - x"], "x + 1", False),
        ("x y", ["x", "x - 1"], "y", True),
    ]

    @staticmethod
    def ideal(fld, variables, gens):
        sig = RingSignature(fld, tuple(variables.split()))
        return Ideal(sig, tuple(parse_poly(g, sig) for g in gens))

    @pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_intersections(self, fld, name):
        variables, gens = self.FIXTURES[name]
        ring = make_ring(fld, variables.split(), gens)
        primes = ring.minimal_primes()
        inter = Ideal(ring.sig, primes[0].generators)
        for p in primes[1:]:
            inter = intersect_ideals(inter, Ideal(ring.sig, p.generators))
        for f, ideal in ([(g, ring.ideal) for g in inter.generators]
                         + [(g, inter) for g in ring.ideal.generators]):
            assert radical_membership(f, ideal) == radical_oracle(f, ideal) is True

    @pytest.mark.parametrize("fld", [QQ, GF(32003)], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("variables, gens, f, expected", CASES)
    def test_cases(self, fld, variables, gens, f, expected):
        ideal = self.ideal(fld, variables, gens)
        f = parse_poly(f, ideal.sig)
        assert radical_membership(f, ideal) == radical_oracle(f, ideal) is expected

    @pytest.mark.parametrize("gens, f, expected", [
        ([], "x", False),
        (["x*y"], "0", True),
        (["1"], "x", True),
    ], ids=["zero-ideal", "zero-element", "unit-ideal"])
    def test_edges(self, gens, f, expected):
        ideal = self.ideal(QQ, "x y", gens)
        f = parse_poly(f, ideal.sig)
        assert radical_membership(f, ideal) is expected
        assert radical_oracle(f, ideal) is expected


class TestCaps:
    def test_pair_cap_raises(self, sig4, p4):
        caps = Caps(max_pairs=1)
        with pytest.raises(CapExceeded):
            buchberger([p4("x^2 - y"), p4("y^2 - z"), p4("z^2 - w")], caps)

    def test_cancellation_token(self, sig4, p4):
        calls = {"n": 0}

        def cancel():
            calls["n"] += 1
            return calls["n"] > 2

        caps = Caps(cancel=cancel)
        with pytest.raises(ComputationCancelled):
            buchberger([p4("x^2 - y"), p4("y^2 - z"), p4("z^2 - w")], caps)

    def test_cancel_is_polled_inside_reductions(self):
        # homogenized cyclic-5: its reductions poll the cancel more often
        # than its S-pair ticks do, so a cancel after the last tick fires
        sig = RingSignature(QQ, ("a", "b", "c", "d", "e", "h"))
        gens = [parse_poly(t, sig) for t in (
            "a + b + c + d + e", "a*b + b*c + c*d + d*e + e*a",
            "a*b*c + b*c*d + c*d*e + d*e*a + e*a*b",
            "a*b*c*d + b*c*d*e + c*d*e*a + d*e*a*b + e*a*b*c", "a*b*c*d*e - h^5",
        )]
        polls = {"n": 0}

        def count():
            polls["n"] += 1
            return False

        caps = Caps(cancel=count)
        assert len(buchberger(gens, caps)) == 38
        ticks = caps._pairs_used
        assert polls["n"] > ticks

        late = {"n": 0}

        def cancel_after_every_tick():
            late["n"] += 1
            return late["n"] > ticks

        caps = Caps(cancel=cancel_after_every_tick)
        with pytest.raises(ComputationCancelled):
            buchberger(gens, caps)
        assert caps._pairs_used <= ticks
