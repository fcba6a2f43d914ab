"""Outside-in tracing of the ``ucx`` layers for the benchmark's traced run.

:class:`Tracer` replaces every public function of the package's modules
with a wrapper that records one span per call: name, start, end, the
span that caused it, and the thread.  The wrappers are installed from
here, by rebinding module attributes, so nothing inside ``src/ucx``
changes.  Every binding of a function is rebound, including the copies
other modules made with ``from .x import y``.

Spans stay correct across the CLI's thread pool: a call on a thread with
no open span of its own takes as parent the innermost span open on the
thread that started the operation, which is blocked in the pool while
its workers run.  Spans are kept per operation and folded into totals
when the operation ends; :func:`layer_metrics` turns the totals into the
per-layer metrics.  A public function that is missing from its module
is reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "ucx"
#: layer modules, in dependency order
LAYERS = ("numerics", "domain", "moduli", "certificates", "bellman", "envelope", "cli")
#: argument validators with no numerical work; called from every layer, their
#: spans would add overhead and tell nothing
UNTRACED = frozenset({"domain.check_exponent", "domain.check_theta", "domain.slice_lower_bound"})


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    note: dict | None = None

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_solve_lp(args, result):
    return {"columns": args[0].eq_matrix.shape[1]}


def _note_concavify(args, result):
    return {"active": len(result.active_weights)}


def _note_sample_boundary(args, result):
    return {"points": len(result)}


def _note_brute_force(args, result):
    return {"residual": result.residual}


#: per-function extractors of work counts from the arguments and the result
NOTES = {
    "numerics.solve_lp": _note_solve_lp,
    "envelope.concavify": _note_concavify,
    "envelope.sample_boundary": _note_sample_boundary,
    "bellman.brute_force_bellman": _note_brute_force,
}


class Tracer:
    """Records spans of calls into the package while installed."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._op_stack: list[int] | None = None
        self._op_root = 0
        self.spans: list[Span] = []
        self.traced: set[str] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a pool worker: the operation's thread is blocked in the pool call
        op_stack = self._op_stack
        return op_stack[-1] if op_stack else self._op_root

    def _wrap(self, name: str, fn):
        tracer, note_fn = self, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                note = note_fn(args, result) if note_fn is not None and result is not None else None
                tracer.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, note))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name not in UNTRACED:
                    wrappers[obj] = self._wrap(name, obj)
                    self.traced.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def begin_operation(self, label: str) -> None:
        """Open the root span of one operation on the calling thread."""
        self.spans = []
        self._op_root = next(self._ids)
        self._op_label = label
        self._op_start = time.perf_counter()
        self._op_stack = self._stack()
        self._op_stack.append(self._op_root)

    def end_operation(self) -> list[Span]:
        end = time.perf_counter()
        self._op_stack.pop()
        self._op_stack = None
        root = Span(self._op_root, 0, f"op.{self._op_label}", threading.get_ident(), self._op_start, end)
        spans, self.spans = self.spans + [root], []
        return spans


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Totals:
    """Per-name span statistics folded over the operations of a run."""

    ops: int = 0
    calls: dict = field(default_factory=lambda: defaultdict(int))
    busy: dict = field(default_factory=lambda: defaultdict(float))
    max_s: dict = field(default_factory=lambda: defaultdict(float))
    note_sum: dict = field(default_factory=lambda: defaultdict(float))
    note_max: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    parallelism: list = field(default_factory=list)

    def add(self, spans: list[Span]) -> None:
        self.ops += 1
        by_id = {s.sid: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)

        def has_same_name_ancestor(s: Span) -> bool:
            p = by_id.get(s.parent)
            while p is not None:
                if p.name == s.name:
                    return True
                p = by_id.get(p.parent)
            return False

        for s in spans:
            if s.name.startswith("op."):
                continue
            self.calls[s.name] += 1
            if not has_same_name_ancestor(s):
                self.busy[s.name] += s.duration
                self.max_s[s.name] = max(self.max_s[s.name], s.duration)
            for k, v in (s.note or {}).items():
                self.note_sum[(s.name, k)] += v
                self.note_max[(s.name, k)] = max(self.note_max[(s.name, k)], v)
            parent = by_id.get(s.parent)
            if parent is None or parent.module != s.module:
                self.self_s[s.name] += s.duration - _union_length(
                    _foreign_descendants(s, children), s.start, s.end)
            if s.name == "cli.cmd_envelope" and s.duration > 0.0:
                rows = sum(c.duration for c in children[s.sid]
                           if c.name in ("envelope.concavify", "bellman.brute_force_bellman"))
                self.parallelism.append(rows / s.duration)


def _foreign_descendants(s: Span, children) -> list[tuple[float, float]]:
    """Intervals of the nearest descendants that belong to another module.

    Callees in the span's own module count as its own time, so a layer's
    self time is the time spent in that module's code.
    """
    out, todo = [], list(children[s.sid])
    while todo:
        c = todo.pop()
        if c.module == s.module:
            todo.extend(children[c.sid])
        else:
            out.append((c.start, c.end))
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.sid, "parent": s.parent, "name": s.name, "thread": s.thread,
         "start": s.start, "end": s.end, **({"note": s.note} if s.note else {})}
        for s in spans
    ]


#: per-layer metrics: traced function and the statistics reported for it
LAYER_METRICS = (
    ("numerics.solve_lp", ("calls", "busy_s", "max_s", "columns")),
    ("envelope.concavify", ("calls", "busy_s", "active")),
    ("envelope.sample_boundary", ("busy_s", "points")),
    ("domain.boundary_value", ("calls", "busy_s")),
    ("bellman.brute_force_bellman", ("calls", "busy_s", "max_s", "residual_max")),
    ("moduli.delta", ("calls", "busy_s")),
    ("moduli.delta_implicit", ("calls", "busy_s")),
    ("moduli.solve_s_star", ("calls", "busy_s")),
    ("domain.boundary_profile", ("calls",)),
    ("numerics.bisect_root", ("calls", "busy_s")),
    ("certificates.verify_appendix", ("busy_s",)),
    ("certificates.sharpness_check", ("busy_s",)),
    ("certificates.certificate_lt2", ("busy_s",)),
    ("bellman.witness_test", ("busy_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "busy_s": "s", "max_s": "s", "self_s": "s",
         "columns": "count", "active": "count", "points": "count", "residual_max": "abs"}


def layer_metrics(totals: Totals, traced: set[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run and the names found absent.

    Calls, busy and self time are per operation; ``max_s`` and
    ``residual_max`` are the largest over the run; ``columns``, ``active``
    and ``points`` are means per call.
    """
    ops = max(totals.ops, 1)
    metrics, absent = {}, []
    for name, stats in LAYER_METRICS:
        if name not in traced:
            absent.append(name)
        calls = totals.calls.get(name, 0)
        for stat in stats:
            if stat == "calls":
                v = calls / ops
            elif stat == "busy_s":
                v = totals.busy.get(name, 0.0) / ops
            elif stat == "self_s":
                v = totals.self_s.get(name, 0.0) / ops
            elif stat == "max_s":
                v = totals.max_s.get(name, 0.0)
            elif stat == "residual_max":
                v = totals.note_max.get((name, "residual"), 0.0)
            else:
                v = totals.note_sum.get((name, stat), 0.0) / calls if calls else 0.0
            metrics[f"{name}.{stat}"] = {"value": v, "unit": UNITS[stat]}
    par = totals.parallelism
    metrics["cli.envelope.parallelism"] = {"value": sum(par) / len(par) if par else 0.0, "unit": "ratio"}
    return metrics, absent
