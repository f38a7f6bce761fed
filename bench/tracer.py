"""Spans and field counters for the traced benchmark run.

Wrappers are installed from outside the library.  Library modules import
names from each other (``oracle`` does ``from .conic import is_reducible``),
so each wrapper replaces every binding of the traced function in every
loaded ``bisectrix.*`` namespace, not only the one in the defining module.
Methods and constructors are wrapped on their class, which every caller
reaches through attribute lookup.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute path) of every spanned function.  A class name alone
# spans its construction (``__init__``).
SPANNED = (
    ("geometry", "intersect"), ("geometry", "midpoint_on_line"), ("geometry", "Line"),
    ("conic", "classify"), ("conic", "is_reducible"), ("conic", "degenerations"),
    ("conic", "mid"), ("conic", "restrict_to_line"),
    ("pencil", "AsymptoticPencil.members"), ("pencil", "find_hyperbolas"),
    ("pencil", "net_contains"), ("pencil", "are_independent"),
    ("pencil", "degeneracy_cubic"),
    ("quad", "validate"), ("quad", "quadrilateral_of"), ("quad", "bisects_quadrilateral"),
    ("bisector", "is_bisector_arrangement"), ("bisector", "bisects_set"),
    ("bisector", "desargues_involution"), ("bisector", "classify_trivial_arrangement"),
    ("oracle", "exhaustive_maximal_arrangements"), ("oracle", "enumerate_line_pairs"),
    ("oracle", "reducible_table"), ("oracle", "enumerate_quadratics"),
    ("textforms", "parse_quadratic"), ("textforms", "parse_line"),
    ("textforms", "parse_pairs"), ("textforms", "format_quadratic"),
    ("textforms", "format_line_equation"),
    ("cli", "dispatch"), ("cli", "build_parser"),
    ("svgfig", "render_pencil"), ("svgfig", "render_asymptotic_pencil"),
    ("svgfig", "render_arrangement"),
)
SPAN_NAMES = tuple(f"{module}.{path}" for module, path in SPANNED)

# Field counters: Scalar methods grouped by what they count.
FIELD_GROUPS = {
    "scalar_new": ("__init__",),
    "scalar_arith": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"),
    "scalar_eq": ("__eq__",),
    "scalar_hash": ("__hash__",),
}

# run_check gets one span per check id, named oracle.check.<id>.
CHECK_PREFIX = "oracle.check."


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bisectrix" or name.startswith("bisectrix."))]


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of ``original``; return how many."""
    n = 0
    for module in _library_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    return n


class SpanRecorder:
    """In-memory spans (name, start, end, parent) around library calls.

    Spans live in flat arrays while an operation runs; ``fold`` turns the
    finished spans into per-name call counts and self times and clears the
    arrays, so memory stays bounded by one operation's spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._open: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.spans_recorded = 0

    def _index(self, name: str) -> int:
        i = self._name_index.get(name)
        if i is None:
            i = self._name_index[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name, fn):
        """A spanning wrapper; ``name`` is a string, or a function of the call's
        positional arguments that returns one."""
        names, parents = self.span_name, self.span_parent
        starts, ends, open_ = self.span_start, self.span_end, self._open
        now = time.perf_counter_ns
        index, raised = self._index, self.raised
        fixed = None if callable(name) else index(name)

        def spanned(*args, **kwargs):
            k = len(names)
            names.append(fixed if fixed is not None else index(name(args)))
            parents.append(open_[-1] if open_ else -1)
            starts.append(0)
            ends.append(0)
            open_.append(k)
            starts[k] = now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                key = self.names[names[k]]
                raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                ends[k] = now()
                open_.pop()

        spanned.__wrapped__ = fn
        return spanned

    def install(self, lib) -> None:
        """Wrap every function in SPANNED, plus ``oracle.run_check`` per id."""
        for (module_name, path), name in zip(SPANNED, SPAN_NAMES):
            owner = getattr(lib, module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            target = getattr(owner, parts[-1])
            if isinstance(target, type):
                init = target.__init__
                target.__init__ = self.wrap(name, init)
            elif len(parts) > 1:
                setattr(owner, parts[-1], self.wrap(name, target))
            else:
                if _rebind(target, self.wrap(name, target)) == 0:
                    raise RuntimeError(f"no binding of {name} found")
        run_check = lib.oracle.run_check
        _rebind(run_check, self.wrap(lambda args: CHECK_PREFIX + args[0], run_check))

    def fold(self) -> None:
        """Fold finished spans into per-name calls and self times."""
        if self._open:
            raise RuntimeError("fold called with spans still open")
        n = len(self.span_name)
        child = [0] * n
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for k, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[k]
        for k in range(n):
            name = self.names[self.span_name[k]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + durations[k] - child[k]
            self.total_ns[name] = self.total_ns.get(name, 0) + durations[k]
        self.spans_recorded += n
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buf[:]

    def report(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns,
                "total_ns": self.total_ns, "raised": self.raised,
                "spans": self.spans_recorded}


class FieldCounter:
    """Call counts of ``Scalar`` construction, arithmetic, equality and hashing.

    Run in a pass of its own: these calls are too many and too short to span,
    and the counting cost must not land in other layers' self times.
    """

    def __init__(self):
        self.counts = {group: [0] for group in FIELD_GROUPS}

    def install(self, lib) -> None:
        scalar = lib.field.Scalar
        for group, methods in FIELD_GROUPS.items():
            cell = self.counts[group]
            for method in methods:
                setattr(scalar, method, _counted(vars(scalar)[method], cell))

    def report(self) -> dict:
        return {group: cell[0] for group, cell in self.counts.items()}


def _counted(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    counted.__wrapped__ = fn
    return counted
