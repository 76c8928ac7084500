"""Span tracing around projgrad's layers, installed from outside the program.

`Tracer.install` replaces each traced name in the module (or class) that
looks it up at call time with a wrapper that records a span: its name, its
start and end, and the span that was open when it began.  Spans stay in
memory and are written out by `save` when the run ends.  Durations, self
times (duration minus child spans) and call counts are kept per
(name, parent name), so a gradient taken by a monitor shows apart from one
taken by a step.  `core.dot` and `core.norm` are only counted: a span per
call would cost more than the call.

Names that a later version of the program no longer has are skipped and
listed in `missing`; their metrics then read 0.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from projgrad import bench, objectives, sets, solver, stepsize

INTERSECTION = "sets.project_intersection"
MONITORS = "solver.monitors"


def _operand_bytes(obj) -> int:
    """Bytes of the arrays an objective reads per call (computed from sizes)."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self.calls: Counter = Counter()  # (name, parent name) -> calls
        self.total: defaultdict = defaultdict(float)  # (name, parent name) -> seconds
        self.self_time: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # trials, failures, bytes
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._id(name)
        stack, names = self._stack, self.names
        starts, ends, parents, span_names = self.span_start, self.span_end, self.span_parent, self.span_name
        calls, total, self_time, extra = self.calls, self.total, self.self_time, self.extra

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            frame = [idx, nid, 0.0]
            starts.append(0.0)
            ends.append(0.0)
            parents.append(parent[0] if parent else -1)
            span_names.append(nid)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                extra[name + ".failures"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                key = (name, names[parent[1]] if parent else "")
                calls[key] += 1
                total[key] += dur
                self_time[key] += dur - frame[2]
                if parent:
                    parent[2] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        stack, names, calls = self._stack, self.names, self.calls

        def counted(*args, **kwargs):
            calls[(name, names[stack[-1][1]] if stack else "")] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ install

    def _replace(self, owner, attr: str, make) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every traced name; `uninstall` puts the originals back."""
        extra = self.extra

        def count_bytes(args, result):
            extra["objectives.bytes"] += _operand_bytes(args[0])

        def trials_of(name):
            def record(args, result):
                extra[name + ".trials"] += result.trials

            return record

        for cls in (objectives.PNorm, objectives.Quadratic, objectives.LogSumExp):
            for method in ("value", "gradient"):
                self._replace(cls, method, lambda f, m=method: self.span(f"objectives.{m}", f, count_bytes))
        for name in ("Box", "Ball", "Halfspace", "Hyperplane", "Simplex", "WholeSpace", "Halfcut"):
            span = "sets.cut_project" if name == "Halfcut" else "sets.project"
            cls = getattr(sets, name, None)
            if cls is None:
                self.missing.append(f"sets.{name}")
            else:
                self._replace(cls, "project", lambda f, span=span: self.span(span, f))
        self._replace(solver, "project_intersection", lambda f: self.span(INTERSECTION, f))
        self._replace(
            solver,
            "armijo_feasible_direction",
            lambda f: self.span("stepsize.feasible_direction", f, trials_of("stepsize.feasible_direction")),
        )
        self._replace(
            solver, "armijo_boundary", lambda f: self.span("stepsize.boundary", f, trials_of("stepsize.boundary"))
        )
        for driver in ("armijo_solve", "anchored_solve", "classic_solve"):
            self._replace(bench, driver, lambda f: self.span("solver.drive", f))
        for suite in ("_armijo_monitors", "_anchored_monitors", "_classic_monitors"):
            self._replace(solver, suite, lambda f: self.span(MONITORS, f))
        self._replace(bench, "summarize", lambda f: self.span("bench.summarize", f))
        self._replace(bench, "write_trace_csv", lambda f: self.span("bench.write_trace", f))
        for module in (sets, solver, stepsize, objectives, bench):
            for helper in ("dot", "norm"):
                if hasattr(module, helper):
                    self._replace(module, helper, lambda f, h=helper: self.counter(f"core.{h}", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ reading

    def n_calls(self, name: str, parent=None) -> int:
        return sum(c for (n, p), c in self.calls.items() if n == name and (parent is None or p == parent))

    def seconds(self, name: str) -> float:
        return sum(t for (n, _), t in self.total.items() if n == name)

    def self_seconds(self, name: str, exclude_parent=None) -> float:
        return sum(t for (n, p), t in self.self_time.items() if n == name and p != exclude_parent)

    def save(self, path) -> None:
        """Write every span: name id, parent span index (-1 at the root),
        start and end (perf_counter seconds), and the table of names."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
