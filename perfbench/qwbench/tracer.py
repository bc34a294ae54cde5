"""Spans around qwsearch's public functions, recorded from outside the package.

Modules bind each other's functions by name (``validation`` does
``from .dynamics import sym_eig``), so a function is replaced at every
binding in every loaded module of the package, and restored afterwards.
Spans (name, start, end, parent, operation id) are kept in memory; a
function's self time is its span minus the part its child spans cover.
"""

import functools
import importlib
import sys
import threading
from dataclasses import dataclass
from time import perf_counter


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _dim3(args, kwargs, result):
    # Jacobi and LAPACK eigensolvers both do O(dim^3) work: a computed count.
    return {"dim3": len(_first_arg(args, kwargs, "matrix")) ** 3}


def _result_bytes(args, kwargs, result):
    return {"bytes": result.nbytes} if result is not None else {}


def _samples(args, kwargs, result):
    return {"samples": result.times.size} if result is not None else {}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())} if result is not None else {}


@dataclass(frozen=True)
class Target:
    """A public function to wrap, with the stats reported for it."""

    module: str
    function: str
    stats: tuple
    measure: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


# The layers are qwsearch's modules.  The private ``_kernels`` module is
# measured through its public callers, sym_eig and adjacency_matrix.
TARGETS = (
    Target("johnson", "vertex_elements", ("self_s",)),
    Target("johnson", "adjacency_matrix", ("self_s", "calls", "bytes"), _result_bytes),
    Target("johnson", "distance_partition", ("self_s",)),
    Target("johnson", "full_hamiltonian", ("self_s", "calls")),
    Target("spectral", "spectral_data", ("self_s", "calls")),
    Target("spectral", "reduced_hamiltonian", ("calls",)),
    Target("coupling", "gamma_star", ("self_s", "calls")),
    Target("dynamics", "sym_eig", ("self_s", "calls", "dim3", "errors"), _dim3),
    Target("dynamics", "find_peak", ("self_s",)),
    Target("dynamics", "success_probability", ("self_s",)),
    Target("dynamics", "scan", ("self_s", "samples"), _samples),
    Target("validation", "asymptotics_row", ("self_s", "errors")),
    Target("validation", "convergence_sweep", ("self_s",)),
    Target("validation", "validate_instance", ("self_s",)),
    Target("validation", "check_spectrum", ("self_s",)),
    Target("validation", "check_partition_invariance", ("self_s",)),
    Target("validation", "reduced_embedding_residual", ("self_s",)),
    Target("validation", "compare_full_reduced", ("self_s",)),
    Target("validation", "compare_marked_vertices", ("self_s",)),
    Target("cli", "render", ("self_s", "bytes"), _text_bytes),
    Target("cli", "main", ("self_s",)),
)

STAT_UNITS = {"self_s": "s", "calls": "count", "errors": "count", "dim3": "count",
              "bytes": "B", "samples": "count"}


def layer_metric_units(targets=TARGETS) -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for t in targets:
        for stat in t.stats:
            units[f"{t.name}.{stat}"] = STAT_UNITS[stat]
            units[f"{t.name}.{stat}_per_op"] = STAT_UNITS[stat] + "/op"
    units["cli.import_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Installs span-recording wrappers around the targets of one package."""

    def __init__(self, package: str = "qwsearch"):
        self.package = package
        self.op = -1
        self.absent = []
        self._spans = []
        self._patched = []
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # A span opened on a pool thread belongs to the installing thread's
        # innermost open span, which is waiting for the pool.
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, target: Target, fn):
        name, measure, spans = target.name, target.measure, self._spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._parent(), self.op, False, None]
            spans.append(span)
            stack = self._stack()
            stack.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if measure is not None:
                    span[6] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        prefix = self.package + "."
        self.absent = []
        found = []
        for target in targets:
            try:
                owner = importlib.import_module(prefix + target.module)
            except ImportError:
                owner = None
            fn = getattr(owner, target.function, None)
            if callable(fn):
                found.append((target, fn))
            else:
                self.absent.append(target.name)
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(prefix))]
        for target, fn in found:
            wrapper = self._wrap(target, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def records(self) -> list:
        """Spans as dicts, the parent given as an index into the list."""
        index = {id(s): i for i, s in enumerate(self._spans)}
        return [
            {"name": s[0], "start": s[1], "end": s[2],
             "parent": index.get(id(s[3]), -1) if s[3] is not None else -1,
             "op": s[4], "error": s[5], "extra": s[6] or {}}
            for s in self._spans
        ]


def self_times(records) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in records]
    for i, r in enumerate(records):
        if r["parent"] >= 0:
            children[r["parent"]].append(i)
    out = []
    for r, kids in zip(records, children):
        covered, reach = 0.0, r["start"]
        for start, end in sorted((records[k]["start"], records[k]["end"]) for k in kids):
            start, end = max(start, reach), min(end, r["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(r["end"] - r["start"] - covered)
    return out


def layer_stats(records, traced_ops, completed_ops, absent=(), targets=TARGETS) -> dict:
    """Per-layer totals over all traced operations, and per-operation values.

    A per-operation value is averaged over the operations that completed
    without raising, so call counts read exactly (3 sym_eig calls per sweep
    row); ``errors`` occur only in the others and is averaged over all traced
    operations.  Functions in ``absent`` (missing from the program) are left out.
    """
    completed_ops = set(completed_ops)
    totals, completed = {}, {}
    for r, self_s in zip(records, self_times(records)):
        stats = {"self_s": self_s, "calls": 1, "errors": int(r["error"]), **r["extra"]}
        for stat, value in stats.items():
            key = (r["name"], stat)
            totals[key] = totals.get(key, 0) + value
            if r["op"] in completed_ops:
                completed[key] = completed.get(key, 0) + value
    out = {}
    for t in targets:
        if t.name in absent:
            continue
        for stat in t.stats:
            key = (t.name, stat)
            out[f"{t.name}.{stat}"] = totals.get(key, 0)
            if stat == "errors":
                out[f"{t.name}.{stat}_per_op"] = totals.get(key, 0) / max(len(traced_ops), 1)
            else:
                out[f"{t.name}.{stat}_per_op"] = completed.get(key, 0) / max(len(completed_ops), 1)
    return out
