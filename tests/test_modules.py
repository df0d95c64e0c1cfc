"""Presented modules: constructors, minimize, kernel, tensor, dual,
transpose, biduality, pushforward, Fitting ideals, local rank."""

import gc
import random

import pytest

from reflextor import GF, QQ, make_ring
from reflextor.caps import Caps, ComputationCancelled
from reflextor.groebner import FreeVector, Ideal, Span, buchberger, ideal_quotient, normal_form
from reflextor.modules import (
    DegreeError,
    ModuleMap,
    NotTorsionless,
    NotWellDefined,
    PresentedModule,
    biduality,
    cyclic,
    dual,
    fitting_ideal,
    free_module,
    kernel,
    localized_rank,
    minimal_generator_indices,
    minimize,
    module_from_rows,
    module_is_zero,
    pushforward,
    ring_membership_span,
    subquotient,
    syzygies_over_ring,
    syzygy,
    tensor,
    transpose,
)
from reflextor.orders import LEX, elimination
from reflextor.parse import parse_poly
from reflextor.poly import Poly
from reflextor.rings import RIdeal

from oracles import (
    all_monomials,
    biduality_by_lift,
    fitting_minors_oracle,
    presentations_equivalent_up_to_permutation,
    span_lift,
)


class TestConstruction:
    def test_cyclic_shape(self, ring_a, n_a):
        assert n_a.num_generators == 1
        assert n_a.num_relations == 1
        assert n_a.matrix_strings() == [["x"]]

    def test_cyclic_zero_ideal_is_free(self, ring_a):
        free = cyclic(ring_a, ())
        assert free.num_relations == 0

    def test_entries_are_reduced_and_zero_columns_dropped(self, ring_a, pa):
        m = module_from_rows(ring_a, [[pa("x*y"), pa("z")]], (0,))
        assert m.num_relations == 1
        assert m.matrix_strings() == [["z"]]

    def test_degree_consistency_enforced(self, ring_a, pa):
        with pytest.raises(ValueError):
            module_from_rows(ring_a, [[pa("x + x^2")]], (0,))

    def test_transpose_of_cyclic(self, m_a):
        assert m_a.num_generators == 3
        assert m_a.num_relations == 1
        assert sorted(s[0] for s in m_a.matrix_strings()) == ["w", "y", "z"]

    def test_transpose_of_free_is_zero(self, ring_a):
        assert transpose(free_module(ring_a, (0, 1))).num_generators == 0

    def test_double_transpose_stable(self, ring_a, m_a):
        tt = transpose(transpose(m_a))
        diff = tt.hilbert_series() - m_a.hilbert_series()
        ring_numer = free_module(ring_a, (0,)).hilbert_series().as_dict()
        assert diff.is_free_combination_of(ring_numer) is not None


class TestMinimize:
    def test_unit_presentation_collapses(self, ring_a, pa):
        z = minimize(cyclic(ring_a, (pa("1"),)))
        assert z.num_generators == 0
        assert module_is_zero(z)

    def test_block_diagonal_unit(self, ring_a, pa):
        m = module_from_rows(
            ring_a,
            [[pa("1"), pa("0")], [pa("0"), pa("x")]],
            (0, 0),
        )
        mm = minimize(m)
        assert mm.num_generators == 1
        assert mm.matrix_strings() == [["x"]]

    def test_redundant_column_dropped(self, ring_b, pb):
        m = module_from_rows(ring_b, [[pb("x"), pb("x^2")]], (0,))
        mm = minimize(m)
        assert mm.matrix_strings() == [["x"]]

    def test_idempotent(self, ring_a, m_a, n_a, tensor_a):
        for m in (m_a, n_a, tensor_a):
            once = minimize(m)
            assert minimize(once) == once

    def test_already_minimal_presentation_kept(self, ring_a, pa):
        rows = [[pa("x"), pa("0"), pa("0")],
                [pa("0"), pa("x"), pa("0")],
                [pa("0"), pa("0"), pa("x")],
                [pa("w"), pa("y"), pa("z")]]
        c = module_from_rows(ring_a, rows, (0, 0, 0, 0))
        assert minimize(c).num_generators == 4
        assert minimize(c).num_relations == 3


class TestTensor:
    def test_shape_and_paper_matrix(self, ring_a, m_a, n_a, tensor_a, pa):
        assert tensor_a.num_generators == 3
        assert tensor_a.num_relations == 4
        displayed = module_from_rows(
            ring_a,
            [[pa("x"), pa("0"), pa("0"), pa("w")],
             [pa("0"), pa("x"), pa("0"), pa("y")],
             [pa("0"), pa("0"), pa("x"), pa("z")]],
            (-1, -1, -1),
        )
        assert presentations_equivalent_up_to_permutation(tensor_a, displayed)

    def test_tensor_with_ring_is_identity(self, ring_a, m_a):
        from reflextor.isomorphism import find_graded_isomorphism

        t = minimize(tensor(m_a, free_module(ring_a, (0,))))
        assert t.hilbert_series() == m_a.hilbert_series()
        assert find_graded_isomorphism(t, m_a) is not None

    def test_small_fixture_tensor_collapses(self, ring_b, m_b, n_b):
        from reflextor.isomorphism import find_graded_isomorphism

        t = minimize(tensor(m_b, n_b))
        iso = find_graded_isomorphism(t, m_b)
        assert iso is not None and iso.shift == 0

    def test_ring_mismatch(self, ring_a, ring_b, m_a, m_b):
        with pytest.raises(ValueError):
            tensor(m_a, m_b)

    def test_commutative_hilbert(self, ring_a, m_a, n_a, tensor_a):
        assert (tensor(n_a, m_a).hilbert_series()
                == tensor(m_a, n_a).hilbert_series())

    def test_associative_hilbert(self, ring_a, m_a, n_a):
        left = tensor(tensor(m_a, n_a), n_a).hilbert_series()
        right = tensor(m_a, tensor(n_a, n_a)).hilbert_series()
        assert left == right


class TestKernelAndMaps:
    def test_kernel_of_multiplication(self, ring_a, pa):
        # ker(R --x--> R) = ann(x) = (y)
        source = free_module(ring_a, (1,))
        target = free_module(ring_a, (0,))
        phi = ModuleMap(source, target, (FreeVector(ring_a.sig, (pa("x"),)),))
        ker, incl = kernel(phi)
        assert ker.num_generators == 1
        assert [str(p) for p in incl.columns[0].coords] == ["y"]

    def test_kernel_of_identity_is_zero(self, ring_a, n_a):
        units = [FreeVector.unit(ring_a.sig, n_a.num_generators, i)
                 for i in range(n_a.num_generators)]
        ker, _ = kernel(ModuleMap(n_a, n_a, units, check=False))
        assert module_is_zero(ker)

    def test_kernel_of_map_to_zero_is_everything(self, ring_a):
        source = free_module(ring_a, (0,))
        zero = PresentedModule(ring_a, (), ())
        phi = ModuleMap(source, zero, (FreeVector(ring_a.sig, ()),))
        ker, _ = kernel(phi)
        assert ker.hilbert_series() == source.hilbert_series()

    def test_ill_defined_map_rejected(self, ring_a, pa, n_a):
        # sending the generator of R/(x) to 1 in R is not well defined
        target = free_module(ring_a, (0,))
        with pytest.raises(NotWellDefined):
            ModuleMap(n_a, target, (FreeVector(ring_a.sig, (pa("1"),)),))

    def test_degree_zero_enforced(self, ring_a, pa, n_a):
        target = free_module(ring_a, (0,))
        with pytest.raises(DegreeError):
            ModuleMap(n_a, target, (FreeVector(ring_a.sig, (pa("z"),)),))


class TestDual:
    def test_dual_of_free(self, ring_a):
        d = dual(free_module(ring_a, (0, 0)))
        assert minimize(d).num_generators == 2
        assert minimize(d).num_relations == 0

    def test_dual_of_cyclic_is_annihilator(self, ring_a, n_a):
        # Hom(R/(x), R) = (0 : x) = (y), a shifted copy of R/(x)
        d = minimize(dual(n_a))
        assert d.num_generators == 1
        assert d.matrix_strings() == [["x"]]
        assert d.gen_degrees == (1,)
        # degree-by-degree check against the shifted polynomial ring
        assert d.hilbert_series().values(0, 5) == [0, 1, 3, 6, 10, 15]

    def test_dual_of_zero(self, ring_a):
        z = PresentedModule(ring_a, (), ())
        assert module_is_zero(dual(z))


class TestBiduality:
    def test_free_is_reflexive(self, ring_a):
        rep = biduality(free_module(ring_a, (0, 2)))
        assert rep.torsionless and rep.reflexive

    def test_main_fixture_torsionless_not_reflexive(self, m_a):
        rep = biduality(m_a)
        assert rep.torsionless
        assert not rep.reflexive
        assert rep.cokernel.num_generators > 0

    def test_small_fixture_partner_has_kernel(self, n_b):
        rep = biduality(n_b)
        assert not rep.torsionless
        assert rep.kernel.num_generators > 0

    def test_kernel_matches_ext_criterion(self, ring_a, m_a, n_a, tensor_a, n_b):
        from reflextor.homology import ext

        for module in (m_a, n_a, tensor_a, n_b):
            ring = module.ring
            rep = biduality(module)
            e1 = ext(transpose(module), free_module(ring, (0,)), 1,
                     want_module=False)
            assert rep.torsionless == e1.is_zero

    def test_agrees_with_the_lift_route(self, ring_a, m_a, n_a, tensor_a, n_b):
        # seeded linear modules and their transposes over both fields and
        # three rings, k, and the fixture, zero and free modules
        modules = [m_a, n_a, tensor_a, n_b, PresentedModule(ring_a, (), ()),
                   free_module(ring_a, (0, 2))]
        for fld in (GF(32003), QQ):
            for seed, relations in enumerate((["x*y - z*w"], ["x*y"], ["x*y", "z*w"])):
                ring = make_ring(fld, ["x", "y", "z", "w"], relations)
                m = _graded_matrix(ring, seed, (0, 0), (1, 1, 1))
                modules += [m, transpose(m), ring.residue_field_module()]
        nonzero = set()
        for m in modules:
            rep = biduality(m)
            for side, got, want in zip(("kernel", "cokernel"),
                                       (rep.kernel, rep.cokernel), biduality_by_lift(m)):
                assert sorted(got.gen_degrees) == sorted(want.gen_degrees)
                assert got.hilbert_series() == want.hilbert_series()
                if got.num_generators:
                    nonzero.add(side)
        assert nonzero == {"kernel", "cokernel"}


class TestPushforward:
    def test_free_module(self, ring_a):
        res = pushforward(free_module(ring_a, (0,)))
        assert module_is_zero(res.module)
        assert res.target_free.num_generators == 1

    def test_fixture_partner(self, ring_a, n_a):
        res = pushforward(n_a)
        assert res.ext1_certificate.is_zero
        assert res.module.num_generators == 1

    def test_certificate_is_ext1_of_the_cokernel(self, m_a):
        # Ext^1(N1, R) = 0 for every pushforward, while Ext^1(Tr N1, R) need
        # not vanish: Tr(R/(y,z,w)) over xy (the fixture) and over xy - zw
        assert pushforward(m_a).ext1_certificate.is_zero
        for fld in (QQ, GF(32003)):
            ring = make_ring(fld, ["x", "y", "z", "w"], ["x*y - z*w"])
            prime = [parse_poly(v, ring.sig) for v in "yzw"]
            res = pushforward(transpose(cyclic(ring, prime)))
            assert res.ext1_certificate.is_zero

    def test_non_torsionless_rejected_with_witness(self, n_b):
        with pytest.raises(NotTorsionless) as err:
            pushforward(n_b)
        assert err.value.witness is not None
        assert not err.value.witness.is_zero

    def test_embedding_is_injective(self, ring_a, n_a):
        res = pushforward(n_a)
        ker, _ = kernel(res.embedding)
        assert module_is_zero(ker)

    def test_stable_syzygy_identity_recorded(self, ring_a, n_a):
        # Omega(Tr N) agrees with Tr(N1) up to free summands: the series
        # difference divides by the ring's series with an integer quotient
        res = pushforward(n_a)
        assert res.stable_syzygy_identity is not None


def _graded_matrix(ring, seed, gen_degrees, col_degrees):
    """Seeded homogeneous matrix: entry (i, j) has degree col - gen, or is
    zero when that is negative and with probability 1/4 otherwise."""
    rng = random.Random(seed)
    sig, fld = ring.sig, ring.sig.field
    rows = []
    for a in gen_degrees:
        row = []
        for b in col_degrees:
            monos = all_monomials(sig.nvars, b - a)
            coeffs = {}
            if monos and rng.random() >= 0.25:
                for mono in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
                    coeffs[mono] = fld.from_int(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
            row.append(Poly.from_dict(sig, coeffs))
        rows.append(row)
    return module_from_rows(ring, rows, gen_degrees)


def _assert_fitting_matches_oracle(m, rows=None):
    """Every Fitt_i, i up to g + 1, equals the Leibniz minors of `rows` (by
    default the presentation's) reduced in the ring, zeros and repeats
    dropped, first occurrence kept, in order."""
    rows = m.rows() if rows is None else rows
    for i in range(m.num_generators + 2):
        want = {}
        for d in fitting_minors_oracle(rows, max(m.num_generators - i, 0)):
            d = m.ring.reduce(d)
            if not d.is_zero:
                want.setdefault(d.terms, d)
        assert list(fitting_ideal(m, i).generators) == list(want.values()), i


class TestFittingIdeals:
    @pytest.mark.parametrize("field, seed, gen_degrees, col_degrees", [
        (GF(32003), 1, (0, 1, 0, 1), (1, 2, 2, 3, 2)),
        (GF(32003), 2, (0, 0, 1, 0, 1), (1, 2, 1)),
        (QQ, 3, (0, 1, 0), (1, 1, 2, 2)),
        (QQ, 5, (0, 0, 0, 1), (1, 2, 1)),
    ], ids=["GF32003-wide", "GF32003-tall", "QQ-wide", "QQ-tall"])
    def test_seeded_matrices_match_leibniz_oracle(self, field, seed, gen_degrees,
                                                  col_degrees):
        ring = make_ring(field, ["x", "y", "z"], [])
        m = _graded_matrix(ring, seed, gen_degrees, col_degrees)
        assert m.num_relations == len(col_degrees)
        entries = [p for row in m.rows() for p in row]
        assert any(p.is_zero for p in entries)
        assert len({p.total_degree() for p in entries if not p.is_zero}) > 1
        _assert_fitting_matches_oracle(m)

    def test_quotient_ring_matrix_matches_leibniz_oracle(self, ring_a, pa):
        rows = [[pa(s) for s in row] for row in
                (["x", "z", "y", "w"], ["y", "x", "w", "z"], ["w", "y", "x", "0"])]
        m = module_from_rows(ring_a, rows, (0, 0, 0))
        minors = fitting_minors_oracle(m.rows(), 2)
        assert any(ring_a.reduce(d) != d for d in minors)
        _assert_fitting_matches_oracle(m)

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
    def test_high_powers_of_one_variable(self, field):
        # the entries' largest exponent is 5, a 3-minor reaches x^13: packing
        # in base 6 would carry x's exponent into y's
        ring = make_ring(field, ["x", "y", "z"], [])
        rows = [["x^4", "x^4*y + y^5", "x^3*z"],
                ["x^3*y", "-x^5", "x^4 - z^4"],
                ["y^4", "x^2*y^3", "x^4 + 2*y^4"]]
        m = module_from_rows(ring, [[parse_poly(s, ring.sig) for s in row]
                                    for row in rows], (0, 0, 0))
        assert max(e for row in m.rows() for p in row for mono, _ in p.terms
                   for e in mono) == 5
        _assert_fitting_matches_oracle(m)

    def test_rows_with_different_denominators(self):
        ring = make_ring(QQ, ["x", "y", "z"], [])
        rows = [["1/2*x", "-2/3*y", "5/7*z", "x - y"],
                ["-5/7*y", "2/3*x + 1/2*z", "x", "-1/2*z"],
                ["2/3*z", "-x", "y - 5/7*x", "3*y"]]
        m = module_from_rows(ring, [[parse_poly(s, ring.sig) for s in row]
                                    for row in rows], (0, 0, 0))
        _assert_fitting_matches_oracle(m)

    @pytest.mark.parametrize("order, field", [(LEX, QQ), (elimination(1), GF(32003))],
                             ids=["lex-QQ", "elim1-GF32003"])
    def test_other_monomial_orders(self, order, field):
        ring = make_ring(field, ["x", "y", "z"], ["x*y - z^2"], order=order)
        m = _graded_matrix(ring, 4, (0, 1, 0), (1, 2, 2, 3))
        _assert_fitting_matches_oracle(m)

    def test_zero_row_zero_column_and_fewer_columns_than_rows(self):
        ring = make_ring(GF(32003), ["x", "y", "z"], [])
        rows = [[parse_poly(s, ring.sig) for s in row] for row in
                (["x", "0", "y + z"], ["0", "0", "0"], ["z", "0", "2*x - y"])]
        m = module_from_rows(ring, rows, (0, 0, 0))
        # the zero column is dropped, so Fitt_0 asks for 3-minors of 2 columns
        assert m.num_relations == 2
        _assert_fitting_matches_oracle(m)
        _assert_fitting_matches_oracle(m, rows)

    def test_leaves_no_reference_cycles(self):
        ring = make_ring(GF(32003), ["x", "y", "z"], [])
        m = _graded_matrix(ring, 1, (0, 1, 0, 1), (1, 2, 2, 3, 2))
        fitting_ideal(m, 1)
        gc.collect()
        gc.disable()
        try:
            for i in range(m.num_generators):
                fitting_ideal(m, i)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cancel_is_polled_once_per_row_tail(self):
        ring = make_ring(GF(32003), ["x", "y", "z"], [])
        m = _graded_matrix(ring, 1, (0, 0, 0), (1, 1, 1, 1, 1))
        with pytest.raises(ComputationCancelled):
            fitting_ideal(m, 0, Caps(cancel=lambda: True))
        polls = []
        caps = Caps(cancel=lambda: polls.append(1) and False)
        assert fitting_ideal(m, 0, caps).generators == fitting_ideal(m, 0).generators
        # one row tail per level for maximal minors; no pair budget used
        assert len(polls) == 3 and caps._pairs_used == 0

    def test_cyclic_fitt0_is_the_ideal(self, ring_a, pa, n_a):
        f0 = fitting_ideal(n_a, 0)
        gb = buchberger(list(f0.generators))
        assert normal_form(pa("x"), gb).is_zero

    def test_main_fixture_chain(self, m_a, pa):
        assert fitting_ideal(m_a, 0).generators == ()
        assert fitting_ideal(m_a, 1).generators == ()
        f2 = fitting_ideal(m_a, 2)
        assert {str(g) for g in f2.generators} == {"y", "z", "w"}
        f3 = fitting_ideal(m_a, 3)
        assert [str(g) for g in f3.generators] == ["1"]

    def test_fitting_at_generator_count_is_unit(self, ring_a, n_a, m_a):
        for m in (n_a, m_a):
            f = fitting_ideal(m, m.num_generators)
            assert [str(g) for g in f.generators] == ["1"]

    def test_zero_module_fitting(self, ring_a):
        z = PresentedModule(ring_a, (), ())
        assert [str(g) for g in fitting_ideal(z, 0).generators] == ["1"]


class TestLocalizedRank:
    def test_fixture_partner_at_minimal_primes(self, ring_a, pa, n_a):
        px = RIdeal(ring_a, (pa("x"),), prime_status="verified")
        py = RIdeal(ring_a, (pa("y"),), prime_status="verified")
        assert localized_rank(n_a, px).rank == 1
        assert localized_rank(n_a, py).rank == 0

    def test_fixture_partner_at_height_one(self, ring_a, pa, n_a):
        pxy = RIdeal(ring_a, (pa("x"), pa("y")), prime_status="verified")
        assert localized_rank(n_a, pxy).kind == "not_free"

    def test_free_module_rank(self, ring_a, pa):
        free = free_module(ring_a, (0, 0, 1))
        px = RIdeal(ring_a, (pa("x"),), prime_status="verified")
        result = localized_rank(free, px)
        assert result.kind == "free" and result.rank == 3

    def test_small_fixture_partner_not_free_at_irrelevant(self, ring_b, pb, n_b):
        m = RIdeal(ring_b, (pb("x"), pb("y")), prime_status="verified")
        assert localized_rank(n_b, m).kind == "not_free"

    def test_redundant_relation_at_minimal_prime(self, ring_a, pa):
        m = module_from_rows(ring_a, [[pa("y"), pa("y*z")]], (0,))
        py = RIdeal(ring_a, (pa("y"),), prime_status="verified")
        result = localized_rank(m, py)
        assert (result.kind, result.rank) == ("free", 1)
        assert result.witness == "x kills Fitt_0 outside the prime"

    def test_several_generators_below_the_rank(self, ring_a, pa):
        # Fitt_1 = (y, y*z): (xy : Fitt_1) = (x), outside (y) but inside (x, y)
        zero = pa("0")
        m = module_from_rows(ring_a, [[pa("y"), zero], [zero, pa("y*z")]], (0, 0))
        assert len(fitting_ideal(minimize(m), 1).generators) == 2
        py = RIdeal(ring_a, (pa("y"),), prime_status="verified")
        pxy = RIdeal(ring_a, (pa("x"), pa("y")), prime_status="verified")
        result = localized_rank(m, py)
        assert (result.kind, result.rank) == ("free", 2)
        assert result.witness == "x kills Fitt_1 outside the prime"
        assert localized_rank(m, pxy).kind == "not_free"

    def test_fitting_chain_built_once_per_module(self, monkeypatch):
        import reflextor.modules as modules_module

        calls = []
        inner = modules_module.fitting_ideal

        def counted(m, i, caps=None):
            calls.append(i)
            return inner(m, i, caps)

        monkeypatch.setattr(modules_module, "fitting_ideal", counted)
        # a fresh ring, so the ring's memo starts empty
        ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"])
        pa = lambda s: parse_poly(s, ring.sig)
        # Fitt_0 = (x): y needs Fitt_0 alone, x and (x, y) need Fitt_1 too
        primes = [RIdeal(ring, tuple(pa(g) for g in gens), prime_status="verified")
                  for gens in (["y"], ["x"], ["x", "y"])]
        m = cyclic(ring, (pa("x"),))
        verdicts = [localized_rank(m, p) for p in primes]
        assert calls == [0, 1]
        # an equal presentation on another object reuses the memo
        fresh = [localized_rank(cyclic(ring, (pa("x"),)), p) for p in primes]
        assert calls == [0, 1]
        assert verdicts == fresh
        assert [v.kind for v in verdicts] == ["free", "free", "not_free"]

    def test_unverified_prime_rejected(self, ring_a, pa, n_a):
        bad = RIdeal(ring_a, (pa("x"),), prime_status="unknown")
        with pytest.raises(ValueError):
            localized_rank(n_a, bad)


class TestSyzygy:
    def test_first_syzygy_of_partner(self, ring_a, n_a):
        s = syzygy(n_a, 1)
        assert s.gen_degrees == (1,)
        assert s.matrix_strings() == [["y"]]

    def test_syzygy_of_free_is_zero(self, ring_a):
        assert module_is_zero(syzygy(free_module(ring_a, (0, 1)), 1))

    def test_zeroth_syzygy_minimizes(self, ring_a, pa):
        m = module_from_rows(ring_a, [[pa("1")]], (0,))
        assert module_is_zero(syzygy(m, 0))

    def test_second_syzygy_periodicity(self, ring_a, n_a):
        s2 = syzygy(n_a, 2)
        assert s2.matrix_strings() == [["x"]]
        assert s2.gen_degrees == (2,)



class TestUntailedRelations:
    """R-spans seed the ring's basis untailed; the answers are exactly those
    of the construction in which every relation g*e_i is a tailed input."""

    # terms per coordinate: dense vectors over the CI make the fully tailed
    # run take tens of seconds
    @pytest.mark.parametrize("which, terms", [("ring_a", 3), ("ring_ci", 1)])
    def test_matches_fully_tailed_construction(self, which, terms, request):
        ring = request.getfixturevalue(which)
        sig, fld = ring.sig, ring.sig.field
        rng = random.Random(20261020)
        rank = 2

        def form(d):
            monos = all_monomials(sig.nvars, d)
            picks = rng.sample(monos, min(terms, len(monos)))
            return Poly.from_dict(sig, {m: fld.from_int(rng.randint(1, 9)) for m in picks})

        def vector(d):
            return FreeVector(sig, tuple(form(d) for _ in range(rank)))

        vectors = [vector(d) for d in (1, 1, 2)]
        modulo = [vector(1)]
        relations = [FreeVector.unit(sig, rank, i).poly_mul(g)
                     for g in ring.ideal.generators for i in range(rank)]
        k = len(vectors)

        old = Span(sig, rank, vectors + modulo + relations)
        heads = (ring.reduce_vector(FreeVector(sig, s.coords[:k])) for s in old.syzygies())
        expected = [h for h in heads if not h.is_zero]
        got = syzygies_over_ring(ring, rank, vectors,
                                 modulo=ring_membership_span(ring, rank, modulo))
        assert got and expected
        # the same module: each list lies, modulo the relations, in the span
        # of the other; over QQ both are the one reduced basis
        for gens, others in ((got, expected), (expected, got)):
            span = ring_membership_span(ring, k, gens)
            assert all(span.contains(v) for v in others)
        if not fld.characteristic:
            assert got == expected

        # lifts as `biduality` takes them: of a member, and of a probe
        lifted = Span(sig, rank, vectors, modulo=ring_membership_span(ring, rank, ()))
        old = Span(sig, rank, vectors + relations)
        member = vectors[0].poly_mul(form(1)) + relations[-1]
        assert span_lift(lifted, member) is not None
        for v in (member, vector(2)):
            want = span_lift(old, v)
            assert span_lift(lifted, v) == (want and want[:k])

        for f in (form(1), form(2), Poly.variable(sig, sig.variables[0])):
            old = Span(sig, 1, [f] + list(ring.ideal.generators))
            firsts = tuple(s.coords[0] for s in old.syzygies() if not s.coords[0].is_zero)
            assert ideal_quotient(ring.ideal, Ideal(sig, (f,))).generators == firsts


class TestRelationSpanIsShared:
    """A relation span handed to a query is seeded from, never grown."""

    def test_caller_span_is_left_as_it_was(self, ring_a, pa):
        sig = ring_a.sig
        vec = lambda a, b: FreeVector(sig, (pa(a), pa(b)))
        d_caps, scan_caps = Caps(), Caps()
        relations = [vec("x", "z"), vec("w", "y")]
        d_span = ring_membership_span(ring_a, 2, relations, d_caps)
        entries = d_span._entries
        snapshot = list(entries)
        outside = vec("1", "0")
        assert not d_span.contains(outside)

        numerators = [outside, vec("0", "1"), vec("x", "z"), vec("y", "0")]
        module, gens, _ = subquotient(ring_a, (0, 0), relations, None, d_caps)
        assert gens == [outside, vec("0", "1")]
        assert module.num_generators == 2
        d_pairs = d_caps._pairs_used
        kept = minimal_generator_indices(ring_a, 2, numerators, [0, 0, 1, 1],
                                         modulo=d_span, caps=scan_caps)
        assert kept == [0, 1]
        # the scan's pairs are charged to the caps it was given
        assert scan_caps._pairs_used > 0 and d_caps._pairs_used == d_pairs

        assert d_span._entries is entries and d_span._entries == snapshot
        assert not d_span.contains(outside)
        assert not d_span.contains(vec("y", "0"))
