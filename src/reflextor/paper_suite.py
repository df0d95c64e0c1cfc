"""Built-in replay of the worked hypersurface examples.

Fourteen claims over two fixture rings: the four-variable hypersurface
Q[x,y,z,w]/(xy) carrying the transpose/tensor reflexivity example, and
the two-variable hypersurface Q[x,y]/(xy) carrying the rigidity
counterexample.  Each claim records the expected outcome next to the
computed one; the suite exits nonzero on the first drift.

The middle matrix of the four-term complex is -y times the skew matrix
of (w, y, z); that structure is what makes both compositions vanish
identically against the Koszul-shaped outer matrices.
"""

from dataclasses import dataclass

from . import modules
from .caps import Caps
from .fields import QQ
from .groebner import FreeVector
from .homology import depth_formula_check, free_resolution, is_torsion, pd, tor
from .isomorphism import find_graded_isomorphism
from .parse import parse_poly
from .reports import EXIT_OK, EXIT_VERIFICATION
from .rigidity import rigidity_search
from .rings import RIdeal, make_ring
from .serre import is_reflexive, n_torsion_free


@dataclass
class Claim:
    id: str
    statement: str
    expected: str
    computed: str
    passed: bool


def _fixture_main(caps):
    ring = make_ring(QQ, ["x", "y", "z", "w"], ["x*y"], caps=caps)
    p = lambda s: parse_poly(s, ring.sig)
    prime = RIdeal(ring, (p("y"), p("z"), p("w")), prime_status="verified")
    m = modules.transpose(modules.cyclic(ring, prime), caps)
    n = modules.cyclic(ring, (p("x"),))
    return ring, m, n


def _fixture_small(caps):
    ring = make_ring(QQ, ["x", "y"], ["x*y"], caps=caps)
    p = lambda s: parse_poly(s, ring.sig)
    m = modules.cyclic(ring, (p("x"),))
    n = modules.cyclic(ring, (p("x^2"),))
    return ring, m, n


def _matrix_columns(ring, rows):
    sig = ring.sig
    g = len(rows)
    return [
        FreeVector(sig, tuple(parse_poly(rows[i][j], sig) for i in range(g)))
        for j in range(len(rows[0]))
    ]


def paper_suite(caps: Caps = None) -> dict:
    """Run all claims; returns the deterministic report dict."""
    caps = caps or Caps()
    claims = []

    ring, m, n = _fixture_main(caps)
    poly = lambda s: parse_poly(s, ring.sig)
    t = modules.minimize(modules.tensor(m, n), caps)

    complex_left = [["x", "0", "0", "w"], ["0", "x", "0", "y"], ["0", "0", "x", "z"]]
    complex_mid = [["0", "y*z", "-y^2"], ["-y*z", "0", "y*w"], ["y^2", "-y*w", "0"]]
    complex_right = [["x", "0", "0"], ["0", "x", "0"], ["0", "0", "x"], ["w", "y", "z"]]
    a1 = _matrix_columns(ring, complex_left)
    a2 = _matrix_columns(ring, complex_mid)
    a3 = _matrix_columns(ring, complex_right)

    composes = (modules.composes_to_zero(ring, a2, a1)
                and modules.composes_to_zero(ring, a3, a2))
    exact = _complex_exact(ring, a1, a2, a3, caps)
    claims.append(Claim(
        "four-term-complex-exact",
        "the four-term complex composes to zero and is exact at "
        "both middle terms",
        "composes and exact",
        f"composes={composes}, exact={exact}",
        composes and exact,
    ))

    c_right = modules.module_from_rows(
        ring, [[poly(s) for s in row] for row in complex_right], (0, 0, 0, 0)
    )
    omega2 = modules.syzygy(c_right, 2, caps)
    iso = find_graded_isomorphism(t, omega2, caps)
    claims.append(Claim(
        "tensor-is-second-syzygy",
        "M (x) N is, up to twist, the second syzygy of the cokernel of the "
        "rightmost matrix, by an explicit certified map",
        "isomorphism found",
        "isomorphism found" if iso else "no isomorphism found",
        iso is not None,
    ))

    rep_m = is_reflexive(m, caps)
    claims.append(Claim(
        "left-factor-not-reflexive",
        "M = Tr(R/(y,z,w)) is torsionless but not reflexive",
        "torsionless, not reflexive",
        f"torsionless={rep_m.torsionless}, reflexive={rep_m.reflexive}",
        rep_m.torsionless and not rep_m.reflexive,
    ))

    rep_n = is_reflexive(n, caps)
    claims.append(Claim(
        "second-factor-reflexive",
        "N = R/(x) is reflexive",
        "reflexive",
        f"reflexive={rep_n.reflexive}",
        rep_n.reflexive,
    ))

    rep_t = is_reflexive(t, caps)
    claims.append(Claim(
        "tensor-reflexive",
        "M (x) N is reflexive",
        "reflexive",
        f"reflexive={rep_t.reflexive}",
        rep_t.reflexive,
    ))

    pd_m = pd(m, caps)
    claims.append(Claim(
        "left-factor-pd-one",
        "M has projective dimension 1",
        "pd = 1",
        f"pd = {pd_m}",
        (not pd_m.above_cap) and pd_m.value == 1,
    ))

    formula = depth_formula_check(m, n, 6, caps)  # the one Tor(M, N) walk
    vanishing = formula.vanishing
    claims.append(Claim(
        "tor-vanishing-certified",
        "Tor_i(M, N) = 0 for i = 1..6, with a certificate covering all i >= 1",
        "all zero, tail certified",
        f"all_zero={vanishing.all_zero}, certificate={vanishing.certificate}",
        vanishing.certified_all,
    ))

    res_n = free_resolution(n, 6, caps)
    betti = res_n.betti_numbers()
    diffs = [
        [str(c.coords[0]) for c in res_n.differential(k)]
        for k in range(1, res_n.length_computed() + 1)
    ]
    alternating = bool(diffs) and all(
        d == (["x"] if k % 2 == 0 else ["y"]) for k, d in enumerate(diffs)
    )
    onset = res_n.periodicity_onset()
    claims.append(Claim(
        "periodic-resolution",
        "the minimal resolution of N has every Betti number 1 with "
        "differentials alternating x and y, 2-periodic from the start",
        "betti all 1, x/y alternating, onset <= 2",
        f"betti={betti}, onset={onset}, alternating={alternating}",
        betti == [1] * 7 and alternating and onset is not None and onset <= 2,
    ))

    q = RIdeal(ring, (poly("x"), poly("y")), prime_status="verified")
    lr = modules.localized_rank(n, q, caps)
    claims.append(Claim(
        "second-factor-not-free-at-height-one",
        "N is not free at the height-one prime (x, y), where its resolution "
        "stays 2-periodic",
        "not free",
        lr.kind,
        lr.kind == "not_free",
    ))

    ring_b, m_b, n_b = _fixture_small(caps)
    t_b = modules.minimize(modules.tensor(m_b, n_b), caps)
    iso_b = find_graded_isomorphism(t_b, m_b, caps)
    claims.append(Claim(
        "small-tensor-collapses",
        "over Q[x,y]/(xy), M (x) N is isomorphic to M for M = R/(x), "
        "N = R/(x^2)",
        "isomorphism found, shift 0",
        "isomorphism found" if iso_b and iso_b.shift == 0 else "not found",
        iso_b is not None and iso_b.shift == 0,
    ))

    tors = [tor(m_b, n_b, i, caps) for i in range(1, 5)]
    tor1 = tors[0]
    torsion_flags = [is_torsion(report.module, caps) for report in tors]
    claims.append(Claim(
        "small-tor-one-nonzero-but-torsion",
        "Tor_1(M, N) is nonzero yet every Tor_i is torsion, i = 1..4",
        "Tor_1 != 0; all torsion",
        f"tor1_zero={tor1.is_zero}, torsion={torsion_flags}",
        (not tor1.is_zero) and all(torsion_flags),
    ))

    ntf_nb = n_torsion_free(n_b, 1, caps)
    claims.append(Claim(
        "small-second-factor-not-torsion-free",
        "N = R/(x^2) is not 1-torsion-free (not torsionless)",
        "fails at level 1",
        f"verdicts={ntf_nb.verdicts}",
        ntf_nb.verdicts == (False,),
    ))

    catalog = [
        m_b,
        modules.cyclic(ring_b, (parse_poly("y", ring_b.sig),)),
        n_b,
        modules.cyclic(ring_b, (parse_poly("y^2", ring_b.sig),)),
        ring_b.residue_field_module(),
    ]
    names = ["R/(x)", "R/(y)", "R/(x^2)", "R/(y^2)", "k"]
    violations = rigidity_search(ring_b, catalog, 3, caps)
    hits_m = [v for v in violations if 0 in (v.left, v.right)]
    claims.append(Claim(
        "small-left-factor-not-rigid",
        "the catalog search finds a partner certifying M = R/(x) is not "
        "Tor-rigid",
        "a witness pair involving R/(x)",
        "; ".join(v.describe(names) for v in hits_m) or "none",
        bool(hits_m),
    ))

    claims.append(Claim(
        "depth-formula",
        "depth M + depth N = depth R + depth(M (x) N) holds with depths "
        "2, 3, 3, 2",
        "2 + 3 = 3 + 2",
        f"{formula.depth_left} + {formula.depth_right} = "
        f"{formula.depth_ring} + {formula.depth_tensor}; holds={formula.holds}",
        formula.holds is True
        and (formula.depth_left, formula.depth_right,
             formula.depth_ring, formula.depth_tensor) == (2, 3, 3, 2),
    ))

    passed = all(c.passed for c in claims)
    return {
        "schema": 1,
        "suite": "paper-suite",
        "claims": [c.__dict__ for c in claims],
        "verified": sum(1 for c in claims if c.passed),
        "total": len(claims),
        "exit_code": EXIT_OK if passed else EXIT_VERIFICATION,
    }


def _complex_exact(ring, a1, a2, a3, caps):
    """Exactness at both middle terms: the cycles of the map out lie in
    the image of the map in, each term on its own pair budget."""
    exact = []
    for degrees, into, out, target_rank in (((3, 3, 3), a1, a2, 3),
                                            ((1, 1, 1), a2, a3, 4)):
        exact.append(not modules.subquotient(
            ring, degrees, into, (out, target_rank, ()), caps.fresh(),
            want_module=False)[1])
    return all(exact)


def paper_suite_text(report: dict) -> str:
    lines = ["paper suite: claim-by-claim replay", ""]
    width = max(len(c["id"]) for c in report["claims"])
    for c in report["claims"]:
        mark = "ok  " if c["passed"] else "FAIL"
        lines.append(f"[{mark}] {c['id']:<{width}}  expected: {c['expected']}")
        lines.append(f"{'':{width + 8}}computed: {c['computed']}")
    lines.append("")
    lines.append(f"{report['verified']}/{report['total']} claims verified")
    if report["exit_code"] != 0:
        first = next(c for c in report["claims"] if not c["passed"])
        lines.append(f"FIRST FAILING CLAIM: {first['id']}")
    return "\n".join(lines) + "\n"
