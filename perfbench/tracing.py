"""Layer tracing from outside the package.

``Tracer.install()`` replaces public functions of the chainplan modules by
timing wrappers; ``uninstall()`` puts the originals back.  Nothing in the
package is edited: every caller inside chainplan reaches these functions
through their module attribute (``kinematics.propagate``, ``solver.verify``,
...), so the wrappers see every call.

Three kinds of wrapper share one frame stack:

- span: a coarse call (a plan, a Newton solve, an oracle root search).  Each
  keeps a record with name, start, end, parent span, problem id, and the
  hot-kernel calls and seconds charged to it (those inside it but not inside
  a child span).  Records stay in memory until ``spans`` is written out.
- layer: counted and timed, with self time, but no record.
- leaf: a hot kernel called millions of times; only a count and summed time,
  with the time charged to the enclosing frame.  Recursive kernels are
  counted once, at their outermost entry.

A frame's self time is its duration minus the time of every wrapped call
nested directly in it.
"""

from __future__ import annotations

import importlib
import time

# (module, function, kind, recursive).  Module names are relative to chainplan.
WRAPPED = (
    ("planner", "plan", "span", False),
    ("solver", "solve_times", "span", False),
    ("solver", "assemble", "span", False),
    ("solver", "verify", "span", False),
    ("oracle", "exhaustive_tf", "span", False),
    ("oracle", "root", "span", False),
    ("kinematics", "segment_bound_check", "layer", False),
    ("laws", "enumerate_af", "layer", True),
    ("laws", "assign_signs", "layer", False),
    ("laws", "simplify", "layer", False),
    ("laws", "canonical", "layer", False),
    ("kinematics", "propagate", "leaf", False),
    ("kinematics", "integral_top", "leaf", False),
    ("kinematics", "plan2", "leaf", False),
    ("kinematics", "real_roots", "leaf", True),
    ("kinematics", "state_polynomial", "leaf", False),
)

LEAVES = tuple(f"{m}.{f}" for m, f, kind, _ in WRAPPED if kind == "leaf")


def _succeeded(name: str, result) -> bool:
    """Useful outcome of a call: a converged Newton solve, a successful
    scipy root search, a passed verification."""
    if name == "oracle.root":
        return bool(result.success)
    if name == "solver.verify":
        return result is None
    return result is not None


class Tracer:
    """Per-layer counters and in-memory spans for one traced pass."""

    def __init__(self):
        # layer -> [calls, total_s, self_s, succeeded]
        self.stats: dict[str, list] = {
            f"{m}.{f}": [0, 0.0, 0.0, 0] for m, f, _, _ in WRAPPED}
        self.spans: list[dict] = []
        self.problem = None
        # frame: [nested_s, span record or None, leaf snapshot, leaf_in_children]
        self._stack: list[list] = [[0.0, None, None, None]]
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------

    def install(self) -> None:
        for mod_name, fn_name, kind, recursive in WRAPPED:
            mod = importlib.import_module(f"chainplan.{mod_name}")
            fn = getattr(mod, fn_name)
            self._saved.append((mod, fn_name, fn))
            name = f"{mod_name}.{fn_name}"
            if kind == "leaf":
                wrapper = self._leaf(name, fn)
            else:
                wrapper = self._frame(name, fn, kind == "span")
            if recursive:
                wrapper = _outermost(wrapper, fn)
            setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, fn_name, fn = self._saved.pop()
            setattr(mod, fn_name, fn)

    # ------------------------------------------------------------------

    def _leaf(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                stack[-1][0] += dt

        return leaf

    def _frame(self, name, fn, is_span):
        stat = self.stats[name]
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def leaf_totals():
            return [(stats[k][0], stats[k][1]) for k in LEAVES]

        def frame(*args, **kwargs):
            record = None
            if is_span:
                parent = _enclosing_span(stack)
                record = {"id": len(spans), "name": name,
                          "parent": parent[1]["id"] if parent else None,
                          "problem": tracer.problem}
                spans.append(record)
                top = [0.0, record, leaf_totals(), [[0, 0.0] for _ in LEAVES]]
            else:
                top = [0.0, None, None, None]
            stack.append(top)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = _succeeded(name, result)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - top[0]
                stat[3] += ok
                if record is not None:
                    record["start"] = t0 - tracer._t0
                    record["end"] = t1 - tracer._t0
                    record["ok"] = ok
                    _close_span(record, top, leaf_totals(), stack)

        return frame


def _close_span(record, top, after, stack):
    """Charge hot-kernel work to the span: its inclusive calls and time
    minus those of its child spans, and pass the inclusive figures up to the
    enclosing span."""
    before, in_children = top[2], top[3]
    inclusive = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)]
    kernels = {}
    for k, (inc, child) in enumerate(zip(inclusive, in_children)):
        calls = inc[0] - child[0]
        if calls:
            kernels[LEAVES[k]] = [calls, inc[1] - child[1]]
    record["kernels"] = kernels
    parent = _enclosing_span(stack)
    if parent is not None:
        for acc, inc in zip(parent[3], inclusive):
            acc[0] += inc[0]
            acc[1] += inc[1]


def _enclosing_span(stack):
    """Innermost open span frame, or None."""
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame
    return None


def _outermost(wrapper, fn):
    """Route nested (recursive) calls straight to ``fn`` so that a recursive
    function is counted once per outermost entry."""
    active = [False]

    def outer(*args, **kwargs):
        if active[0]:
            return fn(*args, **kwargs)
        active[0] = True
        try:
            return wrapper(*args, **kwargs)
        finally:
            active[0] = False

    return outer
