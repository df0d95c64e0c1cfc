"""JSON session files: a ring block, named module expressions, and tasks.

The session format (schema 1) is a single JSON document.  Polynomials are
strings in the parser grammar, matrices are row-major arrays of strings,
and module expressions form a DAG over the exported constructors.  Tasks
may carry an "expect" field; a mismatch is a verification failure.
"""

import json
from dataclasses import dataclass, field
from functools import partial

from .caps import Caps
from .fields import GF, QQ
from .modules import (
    NotTorsionless,
    cyclic,
    dual,
    free_module,
    minimize,
    module_from_rows,
    pushforward,
    syzygy,
    tensor,
    transpose,
)
from .parse import PolyParseError, parse_poly
from .rings import QuotientRing, RIdeal, RingConstructionError, UnsupportedIdealClass
from .verify import RigidityAssertion


class SessionError(ValueError):
    """Malformed session document; maps to exit code 2."""


MODULE_OPS = (
    "cyclic", "coker", "free", "transpose", "dual", "tensor",
    "syzygy", "pushforward", "minimize",
)

TASK_KINDS = (
    "reflexive", "torsionless", "ntf", "tor", "ext", "resolve", "pd",
    "depth", "depth-formula", "is-torsion", "hh-graph", "graph-rank",
    "verify", "rigidity-search", "minimal-primes", "localized-rank",
)


@dataclass
class Session:
    ring: QuotientRing
    modules: dict
    tasks: list
    caps: Caps
    height_one_primes: list = field(default_factory=list)


def int_field(value, name, least=None):
    """The integer value of the session field `name`; a value that is not
    an integer (a boolean, a float with a fractional part, text that does
    not parse), or is below `least`, is an input error naming the field."""
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        number = int(value)
    except (TypeError, ValueError):
        raise SessionError(f"field {name!r} must be an integer: {value!r}") from None
    if least is not None and number < least:
        raise SessionError(f"field {name!r} must be at least {least}: {value!r}")
    return number


def list_field(value, name):
    """The list-valued session field `name`; anything else, a bare string
    too, which would be read as its characters, is an input error naming
    the field."""
    if not isinstance(value, list):
        raise SessionError(f"field {name!r} must be a list: {value!r}")
    return value


def int_list_field(value, name):
    """The integers of the list-valued session field `name`."""
    if not isinstance(value, (list, tuple)):
        raise SessionError(f"field {name!r} must be a list of integers: {value!r}")
    return tuple(int_field(v, name) for v in value)


def poly_field(sig, text, where):
    """The polynomial `text` of the session field `where` over `sig`; a
    value that is not a string, or text the parser rejects, is an input
    error naming the field (and the position)."""
    if not isinstance(text, str):
        raise SessionError(f"field {where!r} must hold polynomial strings: {text!r}")
    try:
        return parse_poly(text, sig)
    except PolyParseError as e:
        raise SessionError(f"bad polynomial in field {where!r}: {text!r}: {e}") from None


def _parse_field(spec):
    if spec in ("QQ", "Q", "rationals", None):
        return QQ
    if isinstance(spec, dict) and "prime" in spec:
        p = int_field(spec["prime"], "ring.field.prime")
        try:
            return GF(p)
        except ValueError as e:
            raise SessionError(f"unrecognized field spec: {e}") from None
    raise SessionError(f"unrecognized field spec: {spec!r}")


# session caps key -> (Caps attribute, least value)
_CAP_FIELDS = {"pairs": ("max_pairs", 0), "degree": ("max_degree", 0),
               "resolution": ("resolution_length", 0),
               "tor_window": ("tor_window", 1)}


def parse_caps(spec, overrides=None) -> Caps:
    """The caps of a session's "caps" object, with the non-None entries of
    `overrides` (command-line values) on top."""
    if not isinstance(spec, (dict, type(None))):
        raise SessionError(f"caps must be an object, got {spec!r}")
    spec = dict(spec or {})
    spec.update({k: v for k, v in (overrides or {}).items() if v is not None})
    caps = Caps()
    for key, (attr, least) in _CAP_FIELDS.items():
        if key in spec:
            setattr(caps, attr, int_field(spec[key], f"caps.{key}", least))
    return caps


def load_session(document, caps_overrides=None) -> Session:
    """Validate and build a session from a parsed JSON document."""
    if not isinstance(document, dict):
        raise SessionError("session document must be a JSON object")
    if document.get("schema") != 1:
        raise SessionError("unsupported schema (expected \"schema\": 1)")
    ringspec = document.get("ring")
    if not isinstance(ringspec, dict):
        raise SessionError("missing ring block")
    fld = _parse_field(ringspec.get("field"))
    variables = ringspec.get("vars")
    if not (variables and isinstance(variables, list)
            and all(isinstance(v, str) for v in variables)):
        raise SessionError(f"field 'ring.vars' must be a nonempty list of names: "
                           f"{variables!r}")
    from .poly import RingSignature

    try:
        sig = RingSignature(fld, tuple(variables))
    except ValueError as e:
        raise SessionError(f"bad variable list: {e}") from None
    caps = parse_caps(document.get("caps"), caps_overrides)

    poly = partial(poly_field, sig)
    ideal_gens = [poly(t, "ring.ideal")
                  for t in list_field(ringspec.get("ideal", []), "ring.ideal")]
    try:
        ring = QuotientRing(sig, ideal_gens, caps)
    except (RingConstructionError, ValueError) as e:
        raise SessionError(f"ring construction failed: {e}") from None

    if "minimal_prime_candidates" in ringspec:
        where = "ring.minimal_prime_candidates"
        candidates = [
            [poly(t, where) for t in list_field(group, where)]
            for group in list_field(ringspec["minimal_prime_candidates"], where)
        ]
        try:
            ring.minimal_primes(candidates=candidates, caps=caps)
        except UnsupportedIdealClass as e:
            raise SessionError(f"minimal prime candidates rejected: {e}") from None
    elif "factors" in ringspec:
        try:
            ring.minimal_primes(
                factors=[poly(t, "ring.factors")
                         for t in list_field(ringspec["factors"], "ring.factors")],
                caps=caps,
            )
        except UnsupportedIdealClass as e:
            raise SessionError(f"factor list rejected: {e}") from None

    where = "ring.height_one_primes"
    height_one = [
        RIdeal(ring, tuple(poly(t, where) for t in list_field(group, where)),
               prime_status="asserted")
        for group in list_field(ringspec.get("height_one_primes", []), where)
    ]

    modules = _evaluate_modules(document.get("modules", {}), ring, poly, caps)
    tasks = document.get("tasks", [])
    if not isinstance(tasks, list):
        raise SessionError("tasks must be a list")
    for t in tasks:
        if not isinstance(t, dict) or t.get("task") not in TASK_KINDS:
            raise SessionError(f"unrecognized task: {t!r}")
    return Session(ring, modules, tasks, caps, height_one)


def load_session_file(path, caps_overrides=None) -> Session:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise SessionError(f"session file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise SessionError(f"invalid JSON: {e}") from None
    return load_session(document, caps_overrides)


def _evaluate_modules(specs, ring, poly, caps):
    if not isinstance(specs, dict):
        raise SessionError("modules must be an object of named expressions")
    resolved = {}
    in_progress = set()

    def build(name):
        if name in resolved:
            return resolved[name]
        if name not in specs:
            raise SessionError(f"unknown module name {name!r}")
        if name in in_progress:
            raise SessionError(f"module expressions form a cycle at {name!r}")
        in_progress.add(name)
        value = _evaluate_expr(specs[name], name, ring, poly, caps, build)
        in_progress.discard(name)
        resolved[name] = value
        return value

    for name in specs:
        build(name)
    return resolved


def _input_module(name, build, *args):
    """The module `build(*args)` of a cyclic or coker spec; a spec it
    rejects (a ragged matrix, a degree count that is not the row count, an
    inhomogeneous generator or column) is an input error naming the module."""
    try:
        return build(*args)
    except ValueError as e:
        raise SessionError(f"module {name!r}: {e}") from None


def _evaluate_expr(expr, name, ring, poly, caps, build):
    if not isinstance(expr, dict) or "op" not in expr:
        raise SessionError(f"module {name!r} needs an object with an \"op\"")
    op = expr["op"]
    if op not in MODULE_OPS:
        raise SessionError(f"module {name!r}: unknown op {op!r}")

    def named(value, where):
        if not isinstance(value, str):
            raise SessionError(f"field {where!r} must name a module: {value!r}")
        return build(value)

    if op == "cyclic":
        where = f"module {name}.ideal"
        gens = tuple(poly(t, where) for t in list_field(expr.get("ideal", []), where))
        return _input_module(name, cyclic, ring, gens)
    if op == "free":
        return free_module(ring, int_list_field(expr.get("degrees", [0]),
                                                f"module {name}.degrees"))
    if op == "coker":
        matrix = expr.get("matrix")
        degrees = expr.get("degrees")
        if not matrix or degrees is None:
            raise SessionError(f"module {name!r}: coker needs matrix and degrees")
        where = f"module {name}.matrix"
        rows = [[poly(t, where) for t in list_field(row, where)]
                for row in list_field(matrix, where)]
        return _input_module(name, module_from_rows, ring, rows,
                             int_list_field(degrees, f"module {name}.degrees"))
    if op == "tensor":
        args = list_field(expr.get("args", []), f"module {name}.args")
        if len(args) != 2:
            raise SessionError(f"module {name!r}: tensor needs two args")
        return tensor(*(named(a, f"module {name}.args") for a in args))
    base = named(expr.get("of", ""), f"module {name}.of")
    if op == "transpose":
        return transpose(base, caps)
    if op == "dual":
        return dual(base, caps)
    if op == "minimize":
        return minimize(base, caps)
    if op == "pushforward":
        try:
            return pushforward(base, caps).module
        except NotTorsionless as e:
            raise SessionError(f"module {name!r}: pushforward of {expr.get('of')!r}"
                               f" refused: {e}") from None
    if op == "syzygy":
        return syzygy(base, int_field(expr.get("n", 1), f"module {name}.n", 0), caps)
    raise SessionError(f"module {name!r}: unhandled op {op!r}")


def rigidity_assertion_from(spec):
    """The assertion of the task field 'rigidity': a catalogued class, by
    name or as {"kind": ..., "detail": ...}, or None when absent."""
    if spec is None:
        return None
    kind, detail = spec, ""
    if isinstance(spec, dict):
        kind, detail = spec.get("kind"), spec.get("detail", "")
    if kind not in RigidityAssertion.KINDS:
        raise SessionError(f"field 'rigidity' names no catalogued class: {spec!r}")
    return RigidityAssertion(kind, detail)
