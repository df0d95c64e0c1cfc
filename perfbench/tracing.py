"""Per-layer tracing of reflextor from outside the package.

`Tracer.install()` wraps the public functions and methods named in
`FUNCTIONS` and `METHODS`.  A wrapped module function is rebound in every
loaded `reflextor` module that holds it, under any name and inside
module-level tables such as `verify.PIPELINES`; a wrapped method is
replaced on its class.  Each call is a span: its self time is its
duration minus the time of the traced spans it directly encloses.  The
span stack is kept per thread, so tasks that `reports.run_session` runs
on its thread pool are timed on their own threads.  On a pool, spans of
different threads overlap in wall time and include waits for the
interpreter lock, so self times can add up to more than the wall time.

Nothing under `src/` is changed; the wrappers live only in this process.
"""

import functools
import importlib
import pkgutil
import sys
import threading
import time


def _offered_kept(stats, args, kwargs, result):
    vectors = kwargs.get("vectors", args[2] if len(args) > 2 else ())
    stats[OFFERED] += len(vectors)
    stats[KEPT] += len(result)


def _span_inputs(stats, args, kwargs, result):
    vectors = kwargs.get("vectors", args[3] if len(args) > 3 else ())
    stats["groebner.Span.inputs"] += len(vectors)


def _basis_size(stats, args, kwargs, result):
    stats["groebner.basis_max"] = max(stats["groebner.basis_max"], len(result))


def _minors(stats, args, kwargs, result):
    stats["modules.fitting_ideal.minors"] += len(result.generators)


# (module, attribute, span name, hook run on the result)
FUNCTIONS = [
    ("modules", "minimal_generator_indices", "modules.minimal_generator_indices", _offered_kept),
    ("modules", "syzygies_over_ring", "modules.syzygies_over_ring", None),
    ("modules", "minimize", "modules.minimize", None),
    ("modules", "kernel", "modules.kernel", None),
    ("modules", "biduality", "modules.biduality", None),
    ("modules", "localized_rank", "modules.localized_rank", None),
    ("modules", "fitting_ideal", "modules.fitting_ideal", _minors),
    ("groebner", "buchberger", "groebner.buchberger", _basis_size),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("homology", "tor", "homology.tor", None),
    ("homology", "ext", "homology.ext", None),
    ("homology", "depth", "homology.depth", None),
    ("hilbert", "hilbert_series_of_presentation", "hilbert.hilbert_series_of_presentation", None),
    ("hilbert", "minimal_vector_subset", "hilbert.minimal_vector_subset", None),
    ("serre", "is_reflexive", "serre.is_reflexive", None),
    ("verify", "verify_second_rigidity", "verify.pipelines", None),
    ("verify", "verify_strong_second_rigidity", "verify.pipelines", None),
    ("verify", "verify_rigidity_vanishing", "verify.pipelines", None),
    ("verify", "verify_rigidity_vanishing_strong", "verify.pipelines", None),
    ("rigidity", "rigidity_search", "rigidity.rigidity_search", None),
    ("isomorphism", "find_graded_isomorphism", "isomorphism.find_graded_isomorphism", None),
    ("linalg", "row_reduce", "linalg.row_reduce", None),
    ("session", "load_session_file", "session.load_session_file", None),
    ("reports", "run_task", "reports.run_task", None),
    ("reports", "report_json", "reports.render", None),
    ("reports", "render_text", "reports.render", None),
    ("paper_suite", "paper_suite", "paper_suite.paper_suite", None),
]

# (module, class, method, span name, hook)
METHODS = [
    ("groebner", "Span", "__init__", "groebner.Span", _span_inputs),
    ("groebner", "IncrementalSpan", "add", "groebner.IncrementalSpan.add", None),
    ("homology", "FreeResolution", "extend_to", "homology.FreeResolution.extend_to", None),
    ("rings", "QuotientRing", "minimal_primes", "rings.QuotientRing.minimal_primes", None),
]

# S-pairs taken from the queue; counted without a span, it is called per pair.
TICK = ("caps", "Caps", "tick", "caps.Caps.tick")

SPANS = sorted({name for *_, name, _ in FUNCTIONS} | {m[3] for m in METHODS})
# totals reported as they are
COUNTS = [
    "groebner.Span.inputs",
    "groebner.basis_max",
    "modules.fitting_ideal.minors",
    f"{TICK[3]}.calls",
]
# totals reported as kept / offered
KEPT = "modules.minimal_generator_indices.kept"
OFFERED = "modules.minimal_generator_indices.offered"


def _load_package():
    import reflextor

    for info in pkgutil.iter_modules(reflextor.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"reflextor.{info.name}")
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "reflextor" or name.startswith("reflextor.")
    }


def _rebind(modules, original, wrapped):
    """Replace `original` by `wrapped` wherever a reflextor module holds it."""
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, entry in value.items():
                    if isinstance(entry, tuple) and original in entry:
                        value[key] = tuple(wrapped if e is original else e for e in entry)


class Tracer:
    """Span and counter totals since the last `reset`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {}
        self.reset()

    def reset(self):
        with self._lock:
            self.stats = {f"{n}.{k}": 0 for n in SPANS for k in ("calls", "self_s")}
            self.stats.update({n: 0 for n in COUNTS + [KEPT, OFFERED]})

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook=None):
        calls, self_s = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.stats[calls] += 1
                    self.stats[self_s] += elapsed - children[0]
            if hook is not None:
                with self._lock:
                    hook(self.stats, args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.stats[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = _load_package()
        for mod, attr, name, hook in FUNCTIONS:
            original = getattr(modules[f"reflextor.{mod}"], attr)
            _rebind(modules, original, self.wrap(name, original, hook))
        for mod, cls_name, attr, name, hook in METHODS:
            cls = getattr(modules[f"reflextor.{mod}"], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))
        mod, cls_name, attr, name = TICK
        cls = getattr(modules[f"reflextor.{mod}"], cls_name)
        setattr(cls, attr, self.count(name, getattr(cls, attr)))
