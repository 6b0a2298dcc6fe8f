"""Spans and counters at the package's module boundaries, recorded from
outside the package.

``install`` replaces every public function and public method of the
layer modules with a wrapper, in every ``leibnizalg`` namespace that
refers to it, and returns a function that puts the originals back.  Each
call through a wrapper is a span: name, start, end, parent span and the
id of the CLI job it belongs to.  Spans are kept in memory; ``spans`` is
written out at the end of a run.

Per pass the tracer aggregates, for each module, its self time (span
durations minus the child spans they contain) and the number of calls
that enter it from another module; for each function, the time of its
outermost spans and its call count; and the counters below.  The time a
counter spends scanning matrices lies outside every span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "files", "algebra", "structure", "levi", "constructions",
          "conjugacy", "exactlin")

# Per-entry coercion and vector arithmetic; they run once per table entry
# and are not a boundary anyone calls into on purpose.
UNTRACED = {"exactlin.as_scalar", "exactlin.as_vector", "exactlin.zero_vector",
            "exactlin.vec_add", "exactlin.vec_sub", "exactlin.vec_scale",
            "exactlin.vec_is_zero"}

# The calls that run an elimination, counted in ``exactlin.rref_calls``.
ELIMINATION = {"exactlin.rref", "exactlin.kernel_basis", "exactlin.solve_affine",
               "exactlin.Subspace.__init__"}

_OPERATORS = ("__call__", "__matmul__", "__add__", "__sub__")


def max_entry_bits(rows) -> int:
    """Largest bit length of a numerator or denominator in the rows."""
    rows = list(rows)
    num = max((abs(x.numerator) for row in rows for x in row), default=0)
    den = max((x.denominator for row in rows for x in row), default=1)
    return max(num.bit_length(), den.bit_length())


class PassStats:
    """Aggregates of one pass over the job list."""

    def __init__(self) -> None:
        self.module_self_s: dict[str, float] = defaultdict(float)
        self.module_calls: Counter = Counter()
        self.fn_s: dict[str, float] = defaultdict(float)
        self.fn_calls: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job: str | None = None
        self.stats = PassStats()
        self._stack: list[list] = []   # [module, child seconds, span id]
        self._depth: Counter = Counter()
        self._next_id = 0

    def new_pass(self) -> PassStats:
        """Start a new pass; returns the aggregates of the one that ended."""
        done, self.stats = self.stats, PassStats()
        return done

    def _before(self, label: str, boundary: bool, args) -> None:
        counts = self.stats.counts
        if label == "algebra.check_left_leibniz":
            counts["algebra.identity_triples"] += args[0].dim ** 3
        elif label == "exactlin.solve_affine":
            a = args[0]
            nnz = sum(1 for row in a.entries for x in row if x)
            for key, value in (("rows", a.rows), ("cols", a.cols), ("nnz", nnz)):
                counts[f"exactlin.solve_affine.max_{key}"] = max(
                    counts[f"exactlin.solve_affine.max_{key}"], value)
        if boundary and label in ELIMINATION:
            counts["exactlin.rref_calls"] += 1
            if label != "exactlin.Subspace.__init__":
                self._bits(args[0].entries)

    def _after(self, label: str, args, result) -> None:
        if label == "exactlin.Subspace.__init__":
            self._bits(args[0].basis.entries)
        elif label == "exactlin.rref":
            self._bits(result[0].entries)
        elif label == "exactlin.kernel_basis":
            self._bits(result.basis.entries)
        elif label == "exactlin.solve_affine" and result is not None:
            self._bits([result[0]])
            self._bits(result[1].basis.entries)

    def _bits(self, rows) -> None:
        counts = self.stats.counts
        counts["exactlin.max_entry_bits"] = max(counts["exactlin.max_entry_bits"],
                                                max_entry_bits(rows))

    def call(self, module: str, label: str, fn, args, kwargs):
        pre = perf_counter()
        stack = self._stack
        parent = stack[-1] if stack else None
        boundary = parent is None or parent[0] != module
        self._before(label, boundary, args)
        frame = [module, 0.0, self._next_id]
        self._next_id += 1
        depth = self._depth[label]
        self._depth[label] = depth + 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._depth[label] = depth
            self._record(label, module, boundary, depth, frame, parent, t0, t1)
            if parent is not None:
                parent[1] += perf_counter() - pre
        if boundary and label in ELIMINATION:
            t2 = perf_counter()
            self._after(label, args, result)
            if parent is not None:
                parent[1] += perf_counter() - t2
        return result

    def _record(self, label, module, boundary, depth, frame, parent, t0, t1) -> None:
        stats = self.stats
        duration = t1 - t0
        stats.module_self_s[module] += duration - frame[1]
        stats.fn_calls[label] += 1
        if depth == 0:
            stats.fn_s[label] += duration
        if boundary:
            stats.module_calls[module] += 1
        self.spans.append((frame[2], label, t0, t1,
                           None if parent is None else parent[2], self.job))


def _traced(tracer: Tracer, module: str, label: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(module, label, fn, args, kwargs)
    return traced


def _targets(module: str, mod):
    """(owner, attribute, label, function) for each public callable."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, f"{module}.{name}", obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                wanted = (not attr.startswith("_") or attr in _OPERATORS
                          or (attr == "__init__" and not dataclasses.is_dataclass(obj)))
                if wanted and (inspect.isfunction(member) or isinstance(member, staticmethod)):
                    yield obj, attr, f"{module}.{name}.{attr}", member


def install(tracer: Tracer):
    """Route every public callable of the layer modules through ``tracer``.

    Returns a function that restores the originals.
    """
    package = [m for name, m in list(sys.modules.items())
               if name == "leibnizalg" or name.startswith("leibnizalg.")]
    restore = []
    for module in LAYERS:
        mod = sys.modules[f"leibnizalg.{module}"]
        for owner, attr, label, member in list(_targets(module, mod)):
            if label in UNTRACED:
                continue
            if isinstance(member, staticmethod):
                wrapped = staticmethod(_traced(tracer, module, label, member.__func__))
            else:
                wrapped = _traced(tracer, module, label, member)
            holders = [owner] if inspect.isclass(owner) else [
                m for m in package if vars(m).get(attr) is member]
            for holder in holders:
                restore.append((holder, attr, member))
                setattr(holder, attr, wrapped)

    def uninstall() -> None:
        for holder, attr, member in reversed(restore):
            setattr(holder, attr, member)
    return uninstall


def layer_metrics(stats: PassStats) -> dict[str, float]:
    """Named per-layer figures of one pass."""
    out: dict[str, float] = {}
    for module in LAYERS:
        out[f"{module}.self_s"] = stats.module_self_s.get(module, 0.0)
        out[f"{module}.calls"] = stats.module_calls.get(module, 0)
    for label, seconds in stats.fn_s.items():
        out[f"{label}.s"] = seconds
        out[f"{label}.calls"] = stats.fn_calls[label]
    out["files.load_s"] = sum(stats.fn_s.get(f"files.{f}", 0.0)
                              for f in ("load_algebra", "load_subspace"))
    out["files.dump_s"] = sum(stats.fn_s.get(f"files.{f}", 0.0)
                              for f in ("dump_algebra", "dump_subspace"))
    out.update(stats.counts)
    return out
