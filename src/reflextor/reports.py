"""Task execution, deterministic report assembly, and revalidation.

The machine-readable report is a pure function of the session document
and the caps: no timestamps, no environment data, keys emitted in a fixed
order.  Certificates carry enough data (bases, differentials, membership
witnesses) for `revalidate_report` to recheck them with independent
engine passes.
"""

import json

from . import __version__
from .caps import CapExceeded, ComputationCancelled
from .fields import GF, QQ
from .graphs import graph_rank, hh_graph
from .groebner import FreeVector, buchberger, verify_groebner
from .homology import (
    INFINITE_DEPTH,
    depth,
    depth_formula_check,
    free_resolution,
    is_torsion,
    pd,
    tor,
    ext,
)
from .modules import (
    PresentedModule,
    apply_columns,
    localized_rank,
    minimize,
    module_from_rows,
    ring_membership_span,
)
from .parse import parse_poly
from .poly import RingSignature
from .rigidity import rigidity_search
from .rings import QuotientRing, RIdeal, RingConstructionError, UnsupportedIdealClass
from .serre import is_reflexive, n_torsion_free
from .session import (
    Session, SessionError, int_field, list_field, poly_field, rigidity_assertion_from,
)
from .verify import PIPELINES

EXIT_OK, EXIT_VERIFICATION, EXIT_INPUT, EXIT_CAP = 0, 1, 2, 3


def _field_spec(fld):
    if fld == QQ:
        return "QQ"
    return {"prime": fld.characteristic}


def _vector_strings(v: FreeVector):
    return [str(p) for p in v.coords]


def _module_payload(m: PresentedModule):
    return {
        "generators": m.num_generators,
        "generator_degrees": list(m.gen_degrees),
        "matrix": m.matrix_strings(),
    }


def _depth_value(d):
    return "infinity" if d == INFINITE_DEPTH else d


def _get_module(session, task, key):
    """The module named by the task field `key`; a missing field or a name
    of no module is an input error naming the field."""
    name = task.get(key)
    if not isinstance(name, str) or name not in session.modules:
        raise SessionError(f"task field {key!r} names no module: {name!r}")
    return session.modules[name]


def _int_task_field(task, key, default, least=None):
    """The integer task field `key`, `default` when absent (None stays None);
    a value below `least` is an input error."""
    value = task.get(key, default)
    return value if value is None else int_field(value, key, least)


def run_task(session: Session, task: dict, index: int) -> dict:
    kind = task["task"]
    caps = session.caps.fresh()
    out = {"name": task.get("name", f"task-{index}"), "kind": kind}
    try:
        result, ok = _dispatch(session, task, caps)
        out["result"] = result
        out["status"] = "ok" if ok else "mismatch"
    except (CapExceeded, ComputationCancelled) as e:
        out["status"] = "cap_exceeded"
        out["result"] = {"error": str(e)}
    except (UnsupportedIdealClass, RingConstructionError) as e:
        raise SessionError(f"task {out['name']!r} ({kind}) cannot run on this "
                           f"ring: {e}") from None
    return out


def _expect_check(task, key, value):
    """True when no expectation is present or it matches."""
    if key not in task:
        return True
    return task[key] == value


def _dispatch(session: Session, task: dict, caps):
    kind = task["task"]
    ring = session.ring
    if kind in ("reflexive", "torsionless"):
        m = _get_module(session, task, "module")
        rep = is_reflexive(m, caps)
        verdict = rep.reflexive if kind == "reflexive" else rep.torsionless
        result = {
            "module": task["module"],
            "verdict": verdict,
            "certificate": {
                "ext_verdicts": list(rep.ext_verdicts),
                "biduality_kernel_generators": rep.biduality_kernel_generators,
                "biduality_cokernel_generators": rep.biduality_cokernel_generators,
            },
            "presentation": _module_payload(minimize(m, caps)),
        }
        return result, _expect_check(task, "expect", verdict)
    if kind == "ntf":
        m = _get_module(session, task, "module")
        rep = n_torsion_free(m, _int_task_field(task, "n", 1, 1), caps)
        result = {
            "module": task["module"],
            "verdicts": list(rep.verdicts),
            "interpretation": rep.interpretation,
        }
        return result, _expect_check(task, "expect", list(rep.verdicts))
    if kind in ("tor", "ext"):
        left = _get_module(session, task, "left")
        right = _get_module(session, task, "right")
        if "range" in task:
            bounds = task["range"]
            if not isinstance(bounds, list) or len(bounds) != 2:
                raise SessionError(f"task field 'range' must be [lo, hi]: {bounds!r}")
            lo = int_field(bounds[0], "range", 0)
            hi = int_field(bounds[1], "range", lo)
        else:
            lo = hi = _int_task_field(task, "i", 1, 0)
        fn = tor if kind == "tor" else ext
        entries = []
        all_zero = True
        for i in range(lo, hi + 1):
            rep = fn(left, right, i, caps)
            all_zero = all_zero and rep.is_zero
            entries.append({
                "i": i,
                "is_zero": rep.is_zero,
                "module": _module_payload(rep.module),
                "hilbert_series": str(rep.module.hilbert_series(caps)),
                "certificate": {
                    "kernel_generators": [_vector_strings(v)
                                          for v in rep.kernel_generators],
                    "relations": [_vector_strings(v)
                                  for v in rep.relation_vectors],
                },
            })
        result = {"left": task["left"], "right": task["right"], "values": entries}
        return result, _expect_check(task, "expect_zero", all_zero)
    if kind == "resolve":
        m = _get_module(session, task, "module")
        length = _int_task_field(task, "length", caps.resolution_length, 0)
        res = free_resolution(m, length, caps)
        result = {
            "module": task["module"],
            "betti": res.betti_numbers(),
            "shifts": [list(s) for s in res._shifts],
            "differentials": [
                [_vector_strings(c) for c in res.differential(k)]
                for k in range(1, res.length_computed() + 1)
            ],
            "complete": res.complete,
            "periodicity_onset": res.periodicity_onset(),
            "d_squared_zero": res.check_d_squared(),
            "minimal": res.is_minimal(),
        }
        return result, True
    if kind == "pd":
        m = _get_module(session, task, "module")
        r = pd(m, caps)
        result = {
            "module": task["module"],
            "value": r.value,
            "above_cap": r.above_cap,
            "periodicity_onset": r.periodicity_onset,
        }
        expected_ok = _expect_check(task, "expect", r.value)
        return result, expected_ok
    if kind == "depth":
        m = _get_module(session, task, "module")
        d = depth(m, caps)
        return (
            {"module": task["module"], "value": _depth_value(d)},
            _expect_check(task, "expect", _depth_value(d)),
        )
    if kind == "depth-formula":
        left = _get_module(session, task, "left")
        right = _get_module(session, task, "right")
        window = _int_task_field(task, "window", None, 1)
        rep = depth_formula_check(left, right, window, caps)
        result = {
            "left": task["left"],
            "right": task["right"],
            "depths": {
                "left": _depth_value(rep.depth_left),
                "right": _depth_value(rep.depth_right),
                "ring": _depth_value(rep.depth_ring),
                "tensor": _depth_value(rep.depth_tensor),
            } if rep.holds is not None else None,
            "holds": rep.holds,
            "tor_window": rep.vanishing.window,
            "tor_certificate": rep.vanishing.certificate,
        }
        return result, _expect_check(task, "expect", rep.holds)
    if kind == "is-torsion":
        m = _get_module(session, task, "module")
        verdict = is_torsion(m, caps)
        return (
            {"module": task["module"], "verdict": verdict},
            _expect_check(task, "expect", verdict),
        )
    if kind == "minimal-primes":
        primes = ring.minimal_primes(caps=caps)
        return (
            {"primes": [[str(g) for g in p.generators] for p in primes],
             "status": [p.prime_status for p in primes]},
            True,
        )
    if kind == "hh-graph":
        g = hh_graph(ring, caps)
        return ({"graph": g.describe()},
                _expect_check(task, "expect_connected", g.is_connected()))
    if kind == "graph-rank":
        m = _get_module(session, task, "module")
        g = hh_graph(ring, caps)
        r = graph_rank(m, g, caps)
        result = {
            "module": task["module"],
            "kind": r.kind,
            "rank": r.rank,
            "vertex_ranks": list(r.vertex_ranks),
            "witness": r.witness,
        }
        return result, _expect_check(task, "expect", r.kind)
    if kind == "localized-rank":
        m = _get_module(session, task, "module")
        texts = task.get("prime")
        if not isinstance(texts, list):
            raise SessionError(f"task field 'prime' must be a list of polynomials: {texts!r}")
        prime = RIdeal(
            ring,
            tuple(poly_field(ring.sig, t, "prime") for t in texts),
            prime_status="asserted",
        )
        if not prime.is_proper(caps):
            raise SessionError(f"task field 'prime' is the unit ideal: {texts!r}")
        r = localized_rank(m, prime, caps)
        result = {
            "module": task["module"],
            "prime": task["prime"],
            "kind": r.kind,
            "rank": r.rank,
            "witness": r.witness,
        }
        return result, _expect_check(task, "expect", r.kind)
    if kind == "verify":
        key = task.get("pipeline")
        if not isinstance(key, str) or key not in PIPELINES:
            raise SessionError(f"task field 'pipeline' names no pipeline: {key!r}")
        name, fn = PIPELINES[key]
        left = _get_module(session, task, "left")
        right = _get_module(session, task, "right")
        kwargs = {"caps": caps, "window": _int_task_field(task, "window", None, 1)}
        if key == "thm3.1":
            rep = fn(left, right, _int_task_field(task, "n", 1, 1),
                     rigidity_assertion_from(task.get("rigidity")), **kwargs)
        elif key == "cor4.6":
            rep = fn(left, right, _int_task_field(task, "n", 1, 1),
                     rigidity_assertion_from(task.get("rigidity")),
                     height_one_primes=session.height_one_primes, **kwargs)
        elif key == "thm1.2":  # no Tor walk; the window is only validated
            rep = fn(left, right, caps=caps,
                     height_one_primes=session.height_one_primes)
        else:
            rep = fn(left, right, **kwargs)
        ok = rep.verdict != "counterexample-candidate"
        ok = ok and _expect_check(task, "expect_verdict", rep.verdict)
        return rep.as_dict(), ok
    if kind == "rigidity-search":
        names = list_field(task.get("catalog") or sorted(session.modules), "catalog")
        catalog = [_get_module(session, {"catalog": n}, "catalog") for n in names]
        window = _int_task_field(task, "window", 3, 2)
        violations = rigidity_search(ring, catalog, window, caps)
        result = {
            "catalog": list(names),
            "window": window,
            "violations": [
                {"left": names[v.left], "right": names[v.right],
                 "kind": v.kind, "tor_zero_pattern": list(v.tor_pattern)}
                for v in violations
            ],
        }
        ok = _expect_check(task, "expect_empty", not violations)
        return result, ok
    raise SessionError(f"unhandled task kind {kind!r}")


def run_session(session: Session) -> dict:
    """Execute every task in order and assemble the deterministic report;
    the first input error ends the run with the error report."""
    ring = session.ring
    results = []
    for i, task in enumerate(session.tasks):
        try:
            results.append(run_task(session, task, i))
        except SessionError as e:
            return {
                "schema": 1,
                "tool": {"name": "reflextor", "version": __version__},
                "error": str(e),
                "exit_code": EXIT_INPUT,
            }
    statuses = [r["status"] for r in results]
    if any(s == "cap_exceeded" for s in statuses):
        exit_code = EXIT_CAP
    elif any(s == "mismatch" for s in statuses):
        exit_code = EXIT_VERIFICATION
    else:
        exit_code = EXIT_OK
    gb = ring.ideal.gb()
    report = {
        "schema": 1,
        "tool": {"name": "reflextor", "version": __version__},
        "caps": {
            "pairs": session.caps.max_pairs,
            "degree": session.caps.max_degree,
            "resolution": session.caps.resolution_length,
            "tor_window": session.caps.tor_window,
        },
        "ring": {
            "field": _field_spec(ring.sig.field),
            "vars": list(ring.sig.variables),
            "ideal": [str(g) for g in ring.ideal.generators],
            "groebner_basis": [str(g) for g in gb.generators],
            "hypersurface": ring.hypersurface,
            "dim": ring.dim,
        },
        "tasks": results,
        "exit_code": exit_code,
    }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = [f"reflextor {report['tool']['version']} report"]
    if "error" in report:
        lines.append(f"input error: {report['error']}")
        return "\n".join(lines) + "\n"
    ring = report["ring"]
    fld = ring["field"] if ring["field"] == "QQ" else f"GF({ring['field']['prime']})"
    lines.append(
        f"ring: {fld}"
        f"[{','.join(ring['vars'])}] / ({', '.join(ring['ideal']) or '0'})"
        f"  dim {ring['dim']}"
        + ("  hypersurface" if ring["hypersurface"] else "")
    )
    for t in report["tasks"]:
        mark = {"ok": "ok", "mismatch": "MISMATCH", "cap_exceeded": "CAP"}[t["status"]]
        summary = _summarize(t)
        lines.append(f"  [{mark:8}] {t['name']} ({t['kind']}): {summary}")
    lines.append(f"exit code: {report['exit_code']}")
    return "\n".join(lines) + "\n"


def _summarize(t):
    r = t.get("result", {})
    kind = t["kind"]
    if "error" in r:
        return r["error"]
    if kind in ("reflexive", "torsionless", "is-torsion"):
        return f"verdict {r['verdict']}"
    if kind == "ntf":
        return f"verdicts {r['verdicts']}"
    if kind in ("tor", "ext"):
        flags = [e["is_zero"] for e in r["values"]]
        return f"is_zero {flags}"
    if kind == "resolve":
        return f"betti {r['betti']} complete={r['complete']}"
    if kind == "pd":
        return "AboveCap" if r["above_cap"] else f"pd {r['value']}"
    if kind == "depth":
        return f"depth {r['value']}"
    if kind == "depth-formula":
        return f"holds {r['holds']}"
    if kind == "hh-graph":
        return f"connected {r['graph']['connected']}"
    if kind == "graph-rank":
        return f"{r['kind']} rank={r['rank']} vertices={r['vertex_ranks']}"
    if kind == "localized-rank":
        return f"{r['kind']} rank={r['rank']}"
    if kind == "verify":
        return f"verdict {r['verdict']}"
    if kind == "rigidity-search":
        return f"{len(r['violations'])} violation(s)"
    if kind == "minimal-primes":
        return f"{len(r['primes'])} prime(s)"
    return ""


# ----------------------------------------------------------------------
# the independent verifier pass


def revalidate_report(report: dict) -> list:
    """Recheck every replayable certificate; returns a list of problems."""
    problems = []
    if "error" in report:
        return problems
    ringspec = report["ring"]
    fld = QQ if ringspec["field"] == "QQ" else GF(ringspec["field"]["prime"])
    sig = RingSignature(fld, tuple(ringspec["vars"]))
    gens = [parse_poly(t, sig) for t in ringspec["ideal"]]
    ring = QuotientRing(sig, gens)
    if gens:
        gb = buchberger(gens)
        if not verify_groebner(gb):
            problems.append("ring basis failed the S-pair recheck")
        if [str(g) for g in gb.generators] != ringspec["groebner_basis"]:
            problems.append("ring basis drifted from the embedded certificate")
    for t in report["tasks"]:
        r = t.get("result", {})
        if t["kind"] == "resolve" and "differentials" in r:
            problems.extend(_recheck_resolution(ring, r, t["name"]))
        if t["kind"] in ("tor", "ext"):
            for entry in r.get("values", []):
                problems.extend(
                    _recheck_membership(ring, entry, f"{t['name']}[i={entry['i']}]")
                )
        for payload in _presentations_in(r):
            try:
                rows = [[parse_poly(s, sig) for s in row] for row in payload["matrix"]]
                module_from_rows(ring, rows, tuple(payload["generator_degrees"]))
            except Exception as e:
                problems.append(f"{t['name']}: embedded presentation invalid: {e}")
    return problems


def _presentations_in(result):
    if isinstance(result, dict):
        if "matrix" in result and "generator_degrees" in result:
            yield result
        for v in result.values():
            yield from _presentations_in(v)
    elif isinstance(result, list):
        for v in result:
            yield from _presentations_in(v)


def _parse_vectors(sig, cols):
    return [FreeVector(sig, tuple(parse_poly(s, sig) for s in col)) for col in cols]


def _recheck_resolution(ring, r, name):
    problems = []
    diffs = [_parse_vectors(ring.sig, step) for step in r["differentials"]]
    for k in range(1, len(diffs)):
        prev, cur = diffs[k - 1], diffs[k]
        rank = prev[0].rank if prev else 0
        for col in cur:
            if not apply_columns(ring, prev, rank, col).is_zero:
                problems.append(f"{name}: d.d != 0 at step {k + 1}")
    if r.get("minimal"):
        for step in diffs:
            for col in step:
                for p in col.coords:
                    if not p.is_zero and p.total_degree() == 0:
                        problems.append(f"{name}: scalar entry in a minimal resolution")
    return problems


def _recheck_membership(ring, entry, name):
    cert = entry.get("certificate", {})
    kgens = _parse_vectors(ring.sig, cert.get("kernel_generators", []))
    if not kgens:
        return []
    rels = _parse_vectors(ring.sig, cert.get("relations", []))
    span = ring_membership_span(ring, kgens[0].rank, rels)
    if all(span.contains(k) for k in kgens) != entry["is_zero"]:
        return [f"{name}: membership recheck disagrees with is_zero"]
    return []
