"""In-memory spans around grpinv's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced layers at
every binding site inside the package.  ``from .iso import are_isomorphic``
binds the name once per consuming module, so wrapping only ``iso`` would
miss the calls that ``enumeration`` and ``classify`` make; instead every
``grpinv`` module attribute that *is* one of those functions is swapped
for its wrapper, and so is every such value inside a module-level dict or
list (``expr._BUILDERS`` maps atom kinds to the constructors).
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span on the same thread (-1 at the top), ``op`` the
workload operation it belongs to, and ``info`` a small dict from the
function's summarizer (order built, witness found, greedy outcome...).
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Layers whose ``__all__`` functions get spans, in package-module order.
LAYERS = ("groups", "iso", "enumeration", "classify", "density", "expr", "catalog", "cli")

#: Table constructors; their self time is ``groups.build_s``.
CONSTRUCTORS = frozenset(
    "groups." + name
    for name in (
        "make_cyclic",
        "make_dihedral",
        "make_dicyclic",
        "make_elementary_abelian_2",
        "direct_product",
        "semidirect_zn_z2",
    )
)

NAME, START, END, PARENT, OP, INFO = range(6)


def _built(args, kwargs, result, exc):
    return {"order": result.order} if exc is None else None


def _enumerated(args, kwargs, result, exc):
    n = args[0] if args else kwargs.get("n")
    if exc is not None:
        return {"n": n}
    return {"n": n, "tables": result.tables_explored, "classes": len(result.groups)}


def _isomorphic(args, kwargs, result, exc):
    return {"witness": result is not None} if exc is None else None


def _greedy(args, kwargs, result, exc):
    if exc is None:
        return {
            "outcome": "converged",
            "scanned": result.primes_scanned,
            "selected": len(result.primes),
        }
    best = getattr(exc, "best", None)
    if type(exc).__name__ == "ConvergenceError" and best is not None:
        return {
            "outcome": "unreachable",
            "scanned": best.primes_scanned,
            "selected": len(best.primes),
        }
    return {"outcome": "error"}


SUMMARIZERS = {
    **{name: _built for name in CONSTRUCTORS},
    "enumeration.enumerate_groups": _enumerated,
    "iso.are_isomorphic": _isomorphic,
    "density.approximate_beta": _greedy,
}


class Tracer:
    """Collects spans from wrapped functions; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, object, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` with a span around every call; results and
        exceptions pass through untouched."""
        summarize = SUMMARIZERS.get(name)
        spans, lock, local, clock = self.spans, self._lock, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            result = exc = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if summarize is not None:
                    span[INFO] = summarize(args, kwargs, result, exc)
                elif exc is not None:
                    span[INFO] = {"raised": type(exc).__name__}

        return traced

    def install(self) -> int:
        """Wrap the traced layers' public functions at every binding site
        in grpinv: module attributes, and values of module-level dicts and
        lists.  Returns the number of bindings replaced."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"grpinv.{layer}"]
            for attr in module.__all__:
                value = getattr(module, attr)
                if callable(value) and not isinstance(value, type):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "grpinv" or key.startswith("grpinv.")
        ]
        containers = [vars(m) for m in modules]
        containers += [
            value
            for namespace in containers[:]
            for attr, value in namespace.items()
            if type(value) in (dict, list) and not attr.startswith("__")
        ]
        for container in containers:
            keys = list(container) if type(container) is dict else range(len(container))
            for key in keys:
                original = container[key]
                wrapper = wrappers.get(id(original))
                if wrapper is not None:
                    self._restore.append((container, key, original))
                    container[key] = wrapper
        return len(self._restore)

    def uninstall(self) -> None:
        """Put every original function back where ``install`` found it."""
        while self._restore:
            container, key, original = self._restore.pop()
            container[key] = original


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children (from threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass, derived from its spans."""
    own = self_times(spans)

    def named(*names):
        return [k for k, span in enumerate(spans) if span[NAME] in names]

    def duration(indices):
        return sum(spans[k][END] - spans[k][START] for k in indices)

    def info(k, key, default=0):
        data = spans[k][INFO] or {}
        return data.get(key, default)

    builds = [k for k, span in enumerate(spans) if span[NAME] in CONSTRUCTORS]
    invariants = named("groups.invariants")
    fingerprints = named("iso.fingerprint")
    iso_tests = named("iso.are_isomorphic")
    enumerations = named("enumeration.enumerate_groups")
    enum_set = set(enumerations)
    dedup = [
        k
        for k, span in enumerate(spans)
        if span[PARENT] in enum_set and span[NAME].split(".")[0] in ("iso", "groups")
    ]
    tables = sum(info(k, "tables") for k in enumerations)
    classes = sum(info(k, "classes") for k in enumerations)
    greedy = named("density.approximate_beta")
    converged = [k for k in greedy if info(k, "outcome", "") == "converged"]
    unreachable = [k for k in greedy if info(k, "outcome", "") == "unreachable"]
    first_unreachable = min(unreachable, key=lambda k: spans[k][START], default=None)

    def self_of(prefix):
        return sum(own[k] for k, span in enumerate(spans) if span[NAME].startswith(prefix))

    def order_s(n):
        return duration([k for k in enumerations if info(k, "n", None) == n])

    return {
        "groups.build_s": sum(own[k] for k in builds),
        "groups.tables_built": len(builds),
        "groups.table_mb_built": sum(4 * info(k, "order") ** 2 for k in builds) / 1e6,
        "groups.invariants_s": duration(invariants),
        "groups.invariants_calls": len(invariants),
        "iso.fingerprint_s": duration(fingerprints),
        "iso.fingerprint_calls": len(fingerprints),
        "iso.are_isomorphic_s": duration(iso_tests),
        "iso.are_isomorphic_calls": len(iso_tests),
        "iso.witness_ratio": (
            sum(1 for k in iso_tests if info(k, "witness", False)) / len(iso_tests)
            if iso_tests
            else 0.0
        ),
        "iso.identify_s": duration(named("iso.identify")),
        "enumeration.search_s": sum(own[k] for k in enumerations),
        "enumeration.dedup_s": duration(dedup),
        "enumeration.order16_s": order_s(16),
        "enumeration.order18_s": order_s(18),
        "enumeration.order20_s": order_s(20),
        "enumeration.tables_explored": tables,
        "enumeration.classes": classes,
        "enumeration.class_ratio": classes / tables if tables else 0.0,
        "classify.self_s": self_of("classify."),
        "classify.l21_s": duration(named("classify.check_unique_cyclic_normality")),
        "classify.l31_s": duration(
            named("classify.check_lemma31a", "classify.check_lemma31b")
        ),
        "classify.l41_s": duration(named("classify.check_lemma41")),
        "classify.l42_s": duration(named("classify.check_lemma42")),
        "cli.self_s": self_of("cli."),
        "density.converged_s": duration(converged),
        "density.unreachable_s": duration(unreachable),
        "density.first_unreachable_s": (
            0.0 if first_unreachable is None else duration([first_unreachable])
        ),
        "density.primes_scanned": sum(info(k, "scanned") for k in greedy),
        "density.primes_selected": sum(info(k, "selected") for k in greedy),
        "density.converged": len(converged),
        "density.unreachable": len(unreachable),
        "expr.evaluate_s": duration(named("expr.evaluate")),
        "catalog.build_s": duration(named("catalog.builtin_catalog")),
        "trace.spans": len(spans),
    }
