"""The benchmark's workloads.

A workload makes its inputs from the seed in `setup` (generating and
parsing only), then repeats one unit of work.  `unit` builds every ring,
module or session anew, so no program cache carries over between units;
`check` tests the unit's output against answers computed in `checks`.
"""

import contextlib
import io
import json
import random
import time
from itertools import combinations
from math import comb
from pathlib import Path

import checks

PRIME = 32003


def _poly_text(terms, names):
    """Render [(coefficient, exponents)] in the parser's grammar."""
    out = []
    for c, expo in terms:
        factors = [str(abs(c))] if abs(c) != 1 or not any(expo) else []
        for v, e in zip(names, expo):
            if e:
                factors.append(v if e == 1 else f"{v}^{e}")
        body = "*".join(factors)
        out.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _scaled(terms, scales, p=None):
    """Substitute x_i -> scales[i] * x_i in [(coefficient, exponents)]."""
    out = []
    for c, expo in terms:
        for s, e in zip(scales, expo):
            c *= s**e
        out.append((c % p if p else c, expo))
    return out


def _plain(poly):
    return dict(poly.terms)


class ResolveCI:
    """Residue field of a 5-variable complete intersection, to length 3.

    The seed scales each variable by a nonzero constant of GF(32003), an
    automorphism of the ring: the Betti numbers stay those of Tate's series.
    """

    name = "resolve-ci"
    names = ("x", "y", "z", "u", "v")
    # x^2+y*z-u*v, z*u-y^2+x*v, x*y*z-v^3
    ideal = [
        [(1, (2, 0, 0, 0, 0)), (1, (0, 1, 1, 0, 0)), (-1, (0, 0, 0, 1, 1))],
        [(1, (0, 0, 1, 1, 0)), (-1, (0, 2, 0, 0, 0)), (1, (1, 0, 0, 0, 1))],
        [(1, (1, 1, 1, 0, 0)), (-1, (0, 0, 0, 0, 3))],
    ]
    length = 3
    layers = [
        "modules.minimal_generator_indices", "groebner.IncrementalSpan.add",
        "homology.FreeResolution.extend_to", "modules.syzygies_over_ring",
        "groebner.Span", "modules.minimize", "groebner.buchberger",
        "caps.Caps.tick",
    ]

    def setup(self, seed):
        from reflextor import GF, GREVLEX, RingSignature, parse_poly

        rng = random.Random(seed)
        scales = [rng.randrange(1, PRIME) for _ in self.names]
        sig = RingSignature(GF(PRIME), self.names, GREVLEX)
        texts = [_poly_text(_scaled(t, scales, PRIME), self.names) for t in self.ideal]
        return {"sig": sig, "gens": [parse_poly(t, sig) for t in texts]}

    def unit(self, inputs):
        from reflextor import QuotientRing
        from reflextor.homology import resolution

        ring = QuotientRing(inputs["sig"], inputs["gens"])
        # step 1 (minimizing the module and taking d_1) happens on construction
        start = time.perf_counter()
        res = resolution(ring.residue_field_module())
        steps = []
        for k in range(1, self.length + 1):
            res.extend_to(k)
            now = time.perf_counter()
            steps.append(now - start)
            start = now
        return {"resolution": res, "step_s": steps}

    def check(self, inputs, out):
        res = out["resolution"]
        want = checks.tate_betti(len(self.names), len(self.ideal), self.length + 1)
        problems = []
        if res.betti_numbers() != want:
            problems.append(f"Betti numbers {res.betti_numbers()}, Tate gives {want}")
        if not res.check_d_squared():
            problems.append("d^2 != 0")
        if not res.is_minimal():
            problems.append("resolution is not minimal")
        return problems


class GroebnerCyc5:
    """Reduced grevlex basis of homogenized cyclic-5 over QQ.

    The seed flips the sign of some variables, which keeps every
    coefficient's size and the whole Buchberger run's shape.
    """

    name = "groebner-cyc5"
    names = ("a", "b", "c", "d", "e", "h")
    basis_size = 38
    layers = ["groebner.buchberger", "caps.Caps.tick"]

    def generators(self):
        n = 5
        gens = []
        for k in range(1, n + 1):
            terms = []
            for start in range(n if k < n else 1):
                expo = [0] * 6
                for i in range(k):
                    expo[(start + i) % n] = 1
                terms.append((1, tuple(expo)))
            if k == n:
                terms.append((-1, (0, 0, 0, 0, 0, n)))
            gens.append(terms)
        return gens

    def setup(self, seed):
        from reflextor import GREVLEX, QQ, RingSignature, parse_poly

        rng = random.Random(seed)
        signs = [rng.choice((1, -1)) for _ in self.names]
        sig = RingSignature(QQ, self.names, GREVLEX)
        texts = [_poly_text(_scaled(t, signs), self.names) for t in self.generators()]
        gens = [parse_poly(t, sig) for t in texts]
        return {"sig": sig, "gens": gens, "plain": [_plain(g) for g in gens]}

    def unit(self, inputs):
        from reflextor.groebner import buchberger

        return {"basis": [_plain(g) for g in buchberger(inputs["gens"])]}

    def check(self, inputs, out):
        basis = out["basis"]
        problems = []
        if len(basis) != self.basis_size:
            problems.append(f"{len(basis)} basis elements, expected {self.basis_size}")
        problems += checks.reduced_basis_problems(basis)
        for i, g in enumerate(inputs["plain"]):
            if checks.reduce_fully(g, basis):
                problems.append(f"input generator {i} does not reduce to 0")
        n = 16  # the Hilbert function is constant from degree 10 = sum(d_i - 1) on
        leads = [checks.lead_monomial(b) for b in basis]
        got = checks.standard_monomial_counts(leads, len(self.names), n)
        want = checks.complete_intersection_hilbert(range(1, 6), len(self.names), n)
        if got != want:
            problems.append(f"lead-term Hilbert function {got}, expected {want}")
        return problems


class CliPaper:
    """`reflextor paper-suite --json`, then `reflextor run <fixture> --json`.

    Both run in this process through `reflextor.cli.main`, with stdout
    captured.  The inputs are the program's built-in claims and the
    committed session fixture; the seed does not change them.
    """

    name = "cli-paper"
    session = "scripts/sessions/hypersurface_xy.json"
    claims = 14
    layers = [
        "session.load_session_file", "reports.run_task", "reports.render",
        "paper_suite.paper_suite", "serre.is_reflexive", "verify.pipelines",
        "isomorphism.find_graded_isomorphism", "rings.QuotientRing.minimal_primes",
        "linalg.row_reduce", "homology.tor", "homology.ext", "homology.depth",
        "homology.FreeResolution.extend_to", "modules.kernel", "modules.biduality",
        "modules.localized_rank", "modules.minimize", "modules.syzygies_over_ring",
        "modules.minimal_generator_indices", "groebner.Span", "groebner.buchberger",
        "groebner.normal_form", "groebner.IncrementalSpan.add", "caps.Caps.tick",
        "rigidity.rigidity_search",
    ]

    def setup(self, seed):
        from reflextor import cli

        path = Path(__file__).resolve().parents[1] / self.session
        return {"main": cli.main, "path": str(path), "first": None}

    def _call(self, main, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def unit(self, inputs):
        main = inputs["main"]
        return {
            "suite": self._call(main, ["paper-suite", "--json"]),
            "run": self._call(main, ["run", inputs["path"], "--json"]),
        }

    def check(self, inputs, out):
        from reflextor.reports import revalidate_report

        problems = []
        (suite_code, suite_json), (run_code, run_json) = out["suite"], out["run"]
        if suite_code != 0 or run_code != 0:
            return [f"exit codes {suite_code} and {run_code}, expected 0 and 0"]
        suite = json.loads(suite_json)
        passed = sum(1 for c in suite["claims"] if c["passed"])
        if (suite["verified"], suite["total"], passed) != (self.claims,) * 3:
            problems.append(f"{passed}/{suite['total']} claims verified")
        problems += revalidate_report(json.loads(run_json))
        if inputs["first"] is None:
            inputs["first"] = (suite_json, run_json)
        elif inputs["first"] != (suite_json, run_json):
            problems.append("JSON output differs from the first unit's")
        return problems


class InvariantsLinear:
    """Hilbert series and Fitting ideals of matrices of random linear forms.

    Over GF(32003)[x0..x3], the seed draws a 3x5 and a 5x7 matrix.  One
    unit computes the Hilbert series of the cokernel of the 3x5 matrix and
    Fitt_0, Fitt_1 of the cokernel of the 5x7 matrix.
    """

    name = "invariants-linear"
    nvars = 4
    hilbert_shape = (3, 5)
    fitting_shape = (5, 7)
    fitting_indices = (0, 1)
    points = 2
    layers = [
        "hilbert.hilbert_series_of_presentation", "hilbert.minimal_vector_subset",
        "modules.fitting_ideal", "groebner.Span",
    ]

    def setup(self, seed):
        from reflextor import GF, GREVLEX, RingSignature, parse_poly

        rng = random.Random(seed)
        names = tuple(f"x{i}" for i in range(self.nvars))
        sig = RingSignature(GF(PRIME), names, GREVLEX)
        axes = [tuple(int(i == j) for j in range(self.nvars)) for i in range(self.nvars)]

        def matrix(rows, cols):
            coeffs = [[[rng.randrange(PRIME) for _ in names] for _ in range(cols)]
                      for _ in range(rows)]
            polys = [[parse_poly(_poly_text([(c, e) for c, e in zip(entry, axes) if c], names)
                                 if any(entry) else "0", sig)
                      for entry in row] for row in coeffs]
            return coeffs, polys

        return {
            "sig": sig,
            "hilbert": matrix(*self.hilbert_shape),
            "fitting": matrix(*self.fitting_shape),
            "points": [[rng.randrange(PRIME) for _ in names] for _ in range(self.points)],
        }

    def unit(self, inputs):
        from reflextor import QuotientRing
        from reflextor.modules import fitting_ideal, module_from_rows

        ring = QuotientRing(inputs["sig"], [])
        rows = inputs["hilbert"][1]
        series = module_from_rows(ring, rows, (0,) * len(rows)).hilbert_series()
        rows = inputs["fitting"][1]
        m = module_from_rows(ring, rows, (0,) * len(rows))
        fitts = [[_plain(g) for g in fitting_ideal(m, i).generators]
                 for i in self.fitting_indices]
        return {"series": (series.nvars, series.as_dict()), "fitting": fitts}

    def check(self, inputs, out):
        problems = []
        want = checks.buchsbaum_rim_numerator(*self.hilbert_shape)
        if out["series"] != (self.nvars, want):
            problems.append(f"Hilbert series {out['series']}, Buchsbaum-Rim gives {want}")
        coeffs = inputs["fitting"][0]
        g, r = self.fitting_shape
        for i, minors in zip(self.fitting_indices, out["fitting"]):
            size = g - i
            expected = comb(g, size) * comb(r, size)
            if len(minors) != expected:
                problems.append(f"Fitt_{i} has {len(minors)} minors, expected {expected}")
                continue
            for point in inputs["points"]:
                values = [[sum(a * x for a, x in zip(entry, point)) % PRIME
                           for entry in row] for row in coeffs]
                subs = ((rs, cs) for rs in combinations(range(g), size)
                        for cs in combinations(range(r), size))
                for minor, (rs, cs) in zip(minors, subs):
                    det = checks.det_mod([[values[a][b] for b in cs] for a in rs], PRIME)
                    got = checks.evaluate(minor, point, PRIME)
                    if got not in (det, -det % PRIME):
                        problems.append(f"Fitt_{i} minor {rs}x{cs} is wrong at {point}")
                        break
        return problems


WORKLOADS = {w.name: w for w in (ResolveCI, GroebnerCyc5, CliPaper, InvariantsLinear)}
