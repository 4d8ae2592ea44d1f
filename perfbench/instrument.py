"""Outside-in instrumentation of the regmaps modules.

Nothing here edits the program.  Each instrumented name is looked up at
run time, by module and attribute, and its binding is replaced in every
loaded ``regmaps`` module that holds the same object: ``from .perms
import closure`` copies the binding into ``wreath`` and ``maps``, so
patching ``perms`` alone would miss their calls.  A class is counted
through its ``__init__``.  A name that no longer exists reports zero
calls and is listed as missing instead of failing the run.

Two instruments share that patching:

* ``capture_cell_stats`` makes every ``classify`` call fill a
  ``CellStats`` the benchmark can read, and records the worker count it
  ran with.  It is cheap (one call per census cell) and is installed in
  every run, traced or not, because the counts are correctness
  references.
* ``Tracer`` records calls, self time and raised exceptions per name.
  Self time is a span's duration minus the spans it encloses, so the
  self times of all names add up to the time spent inside any span.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from time import perf_counter

# (layer.name, metrics reported for it); the layer is the regmaps module
LAYERS = (
    ("cli.main", ("self_s",)),
    ("wreath.classify", ("self_s",)),
    ("wreath.enumerate_sigma_candidates", ("calls", "self_s")),
    ("wreath.canonical_triple", ("calls", "self_s")),
    ("wreath.wreath_to_perm", ("calls", "self_s")),
    ("wreath.maps_isomorphic", ("calls", "self_s")),
    ("wreath.records_from_json", ("self_s",)),
    ("perms.Perm", ("calls",)),
    ("perms.closure", ("calls", "self_s", "cap_exceeded")),
    ("perms.is_involution", ("calls", "self_s")),
    ("perms.evaluate_word", ("calls", "self_s")),
    ("maps.validate_admissible", ("calls", "self_s")),
    ("maps.is_orientable", ("calls", "self_s")),
    ("maps.invariants", ("calls", "self_s")),
    ("maps.nonorientability_witness", ("calls", "self_s")),
    ("maps.coset_graph", ("calls", "self_s")),
    ("graphs.hamming", ("calls", "self_s")),
    ("graphs.is_isomorphic", ("calls", "self_s")),
    ("pgl29.mat_closure", ("calls", "self_s")),
    ("pgl29.pgl_triple", ("calls", "self_s")),
    ("pgl29.verify_construction", ("calls", "self_s")),
)

CELL_COUNTERS = ("candidates", "clique_rejected", "precheck_rejected", "cap_exceeded", "kept")

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{
        f"{name}.{m}": ("s" if m == "self_s" else "count")
        for name, metrics in LAYERS
        for m in metrics
    },
    **{f"wreath.cell.{c}": "count" for c in CELL_COUNTERS},
    "wreath.cell.evaluated_share": "ratio",
    "wreath.cell.kept_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.missing_names": "count",
}


def _lookup(name: str):
    module, attr = name.split(".", 1)
    try:
        mod = importlib.import_module(f"regmaps.{module}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


def _rebind(original, replacement) -> None:
    """Point every loaded regmaps binding of ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "regmaps" or modname.startswith("regmaps.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def capture_cell_stats() -> list[dict]:
    """Make ``classify`` record its cell, worker count and ``CellStats``.

    Returns the list that each finished call appends to.
    """
    from regmaps import wreath

    original = wreath.classify
    signature = inspect.signature(original)
    cells: list[dict] = []

    def classify(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments.get("stats") is None:
            bound.arguments["stats"] = wreath.CellStats()
        stats = bound.arguments["stats"]
        try:
            return original(*bound.args, **bound.kwargs)
        finally:
            cells.append({
                "d": bound.arguments["d"],
                "n": bound.arguments["n"],
                "workers": bound.arguments.get("workers", 1),
                "stats": dataclasses.asdict(stats),
            })

    _rebind(original, classify)
    return cells


class Tracer:
    """Per-name call counts, self times and raised exception types."""

    def __init__(self):
        self.names = tuple(name for name, _ in LAYERS)
        self.calls = {n: 0 for n in self.names}
        self.self_s = {n: 0.0 for n in self.names}
        self.raised: dict[str, dict[str, int]] = {n: {} for n in self.names}
        self.missing: list[str] = []
        self._stack: list[float] = []  # time covered by child spans, per open span

    def install(self) -> None:
        for name in self.names:
            obj = _lookup(name)
            if obj is None:
                self.missing.append(name)
            elif isinstance(obj, type):
                obj.__init__ = self._wrap(name, obj.__init__)
            elif inspect.isgeneratorfunction(obj):
                _rebind(obj, self._wrap_generator(name, obj))
            elif callable(obj):
                _rebind(obj, self._wrap(name, obj))
            else:
                self.missing.append(name)

    def _close(self, name: str, start: float) -> None:
        duration = perf_counter() - start
        stack = self._stack
        self.self_s[name] += duration - stack.pop()
        if stack:
            stack[-1] += duration

    def _wrap(self, name: str, fn):
        calls, raised, stack, close = self.calls, self.raised[name], self._stack, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                raised[kind] = raised.get(kind, 0) + 1
                raise
            finally:
                close(name, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator's work happens when it is resumed, so each resume
        is a span of its own; ``calls`` counts the generators created."""
        calls, stack, close = self.calls, self._stack, self._close

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(name, start)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "raised": self.raised,
            "missing": self.missing,
        }


def layer_metrics(trace: dict, cells: list[dict]) -> dict[str, float]:
    """Per-layer metric values of one traced run, without the ``trace.*``
    figures that need the untraced runs too."""
    out: dict[str, float] = {}
    for name, metrics in LAYERS:
        for m in metrics:
            if m == "cap_exceeded":
                out[f"{name}.{m}"] = trace["raised"][name].get("CapExceeded", 0)
            else:
                out[f"{name}.{m}"] = trace[m][name]
    totals = {c: sum(cell["stats"].get(c, 0) for cell in cells) for c in CELL_COUNTERS}
    for c, value in totals.items():
        out[f"wreath.cell.{c}"] = value
    candidates = totals["candidates"]
    evaluated = candidates - totals["clique_rejected"]
    out["wreath.cell.evaluated_share"] = evaluated / candidates if candidates else 0.0
    out["wreath.cell.kept_share"] = totals["kept"] / candidates if candidates else 0.0
    return out
