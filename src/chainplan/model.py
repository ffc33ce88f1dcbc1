"""Core domain types: behaviors, switching-law sequences, problems, trajectories.

State convention
----------------
A state vector is a plain tuple ``(x1, ..., xn)`` where ``x1`` is driven
directly by the input ``u`` and each higher state integrates the one below
(``x2' = x1``, ..., ``xn' = x_{n-1}``); ``xn`` plays the role of position.

A bound vector is a tuple ``(M0, M1, ..., Mn)``.  ``M0`` bounds ``|u|`` and
must be finite; ``Mk`` bounds ``|xk|`` and may be ``None`` for an
unconstrained state.  Unbounded entries never enter arithmetic: comparisons
against them short-circuit to "satisfied".

Switching-law text forms
------------------------
Signed sequences serialize space-separated: behaviors as ``+k``/``-k``,
virtual groups as ``( e1 e2 ... )``, tangent markers as ``(+k,2l)`` or
``(-k,2l)``.  Unsigned sequences serialize compactly with no spaces
(``0102010``, ``010(3,2)0102010``, ``...(3)...``), the form used for
catalog listings.  ``asl_parse`` accepts both.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional, Union

from . import kinematics


class AslError(ValueError):
    """A switching-law sequence violates a structural rule.

    ``rule`` carries a stable identifier for the violated rule: one that
    element or ``Asl`` construction enforces, or "group-context" from
    chainplan.laws.assign_signs.
    """

    def __init__(self, message: str, rule: str):
        super().__init__(f"{message} [rule: {rule}]")
        self.rule = rule


class ParseError(ValueError):
    """Switching-law text could not be parsed; ``pos`` is the offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class InfeasibleError(ValueError):
    """Problem data violates a precondition (state outside its bound)."""


@dataclass(frozen=True)
class Behavior:
    """One maximal stage: input saturated (value 0) or a state riding its bound.

    ``value`` is the index of the riding state (0 for input saturation);
    ``sign`` is +1/-1 for the saturated side, or None while unsigned.
    """

    value: int
    sign: Optional[int] = None

    def __post_init__(self):
        if self.value < 0:
            raise AslError(f"behavior value must be >= 0, got {self.value}",
                           "behavior-value")
        if self.sign not in (None, 1, -1):
            raise AslError(f"behavior sign must be +1/-1/None, got {self.sign}",
                           "behavior-sign")

    def negated(self) -> "Behavior":
        return Behavior(self.value, None if self.sign is None else -self.sign)

    def text(self) -> str:
        if self.sign is None:
            return str(self.value)
        return ("+" if self.sign > 0 else "-") + str(self.value)


@dataclass(frozen=True)
class VirtualGroup:
    """A bracketed continuation that is feasible but not traversed.

    Encodes the interception of a descending trajectory by a lower-order
    manifold; members are plain behaviors.
    """

    members: tuple[Behavior, ...]

    def __post_init__(self):
        if not self.members:
            raise AslError("virtual group must have at least one member",
                           "group-nonempty")
        if not all(isinstance(m, Behavior) for m in self.members):
            raise AslError("virtual group members must be plain behaviors",
                           "group-members")

    def negated(self) -> "VirtualGroup":
        return VirtualGroup(tuple(m.negated() for m in self.members))

    def text(self) -> str:
        inner = [m.text() for m in self.members]
        if any(m.sign is not None for m in self.members):
            return "( " + " ".join(inner) + " )"
        return "(" + "".join(inner) + ")"


@dataclass(frozen=True)
class TangentMarker:
    """An instant where a state touches its bound with vanishing derivatives.

    ``behavior`` names the touching state and side; ``degree`` (even, > 0)
    counts the pinned conditions and the dimension the marker removes.
    """

    behavior: Behavior
    degree: int

    def __post_init__(self):
        if self.behavior.value < 3:
            raise AslError(
                f"tangent marker needs state index >= 3, got {self.behavior.value}",
                "marker-value")
        if self.degree <= 0 or self.degree % 2 != 0:
            raise AslError(f"marker degree must be even and positive, got {self.degree}",
                           "marker-degree")
        if self.degree > self.behavior.value:
            raise AslError(
                f"marker degree {self.degree} exceeds state index {self.behavior.value}",
                "marker-degree")

    def negated(self) -> "TangentMarker":
        return TangentMarker(self.behavior.negated(), self.degree)

    def text(self) -> str:
        return f"({self.behavior.text()},{self.degree})"


AslElement = Union[Behavior, VirtualGroup, TangentMarker]


def _iter_behaviors(elements) -> Iterator[Behavior]:
    for e in elements:
        if isinstance(e, Behavior):
            yield e
        elif isinstance(e, VirtualGroup):
            yield from e.members
        else:
            yield e.behavior


def expected_prev_sign(nxt: Behavior) -> Optional[int]:
    """Sign forced on the predecessor of ``nxt`` in a signed sequence.

    The predecessor copies the sign across an odd-valued successor and flips
    it across an even-valued one.
    """
    if nxt.sign is None:
        return None
    return nxt.sign if nxt.value % 2 == 1 else -nxt.sign


@dataclass(frozen=True)
class Asl:
    """An ordered switching-law sequence (plain, with groups and markers).

    Construction enforces the local structural rules: no two adjacent
    nonzero-valued behaviors, markers flanked by saturation stages, and the
    sign-alternation chain on adjacent plain behaviors.  The catalog's
    group-parity filter and the sign assignment live in chainplan.laws.
    """

    elements: tuple[AslElement, ...] = ()

    def __post_init__(self):
        elems = self.elements
        signs = {e.sign is not None
                 for e in _iter_behaviors(elems)}
        if len(signs) > 1:
            raise AslError("sequence mixes signed and unsigned elements",
                           "mixed-signs")
        for i, e in enumerate(elems):
            if isinstance(e, TangentMarker):
                before = elems[i - 1] if i > 0 else None
                after = elems[i + 1] if i + 1 < len(elems) else None
                for side in (before, after):
                    if not (isinstance(side, Behavior) and side.value == 0):
                        raise AslError(
                            "tangent marker must sit between saturation stages",
                            "marker-flanks")
        for a, b in zip(elems, elems[1:]):
            if isinstance(a, Behavior) and isinstance(b, Behavior):
                if a.value != 0 and b.value != 0:
                    raise AslError(
                        f"adjacent behaviors {a.text()} {b.text()} both ride bounds",
                        "adjacent-nonzero")
                want = expected_prev_sign(b)
                if want is not None and a.sign is not None and a.sign != want:
                    raise AslError(
                        f"sign of {a.text()} inconsistent before {b.text()}",
                        "sign-chain")

    @property
    def signed(self) -> bool:
        return any(b.sign is not None for b in _iter_behaviors(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def unsigned(self) -> "Asl":
        def strip(e):
            if isinstance(e, Behavior):
                return Behavior(e.value)
            if isinstance(e, VirtualGroup):
                return VirtualGroup(tuple(Behavior(m.value) for m in e.members))
            return TangentMarker(Behavior(e.behavior.value), e.degree)
        return Asl(tuple(strip(e) for e in self.elements))

    def text(self) -> str:
        return asl_to_string(self)


def asl_to_string(asl: Asl) -> str:
    """Canonical text form; inverse of asl_parse.

    Signed sequences come out space-separated with explicit signs; unsigned
    ones in the compact catalog form.
    """
    parts = [e.text() for e in asl.elements]
    if asl.signed:
        return " ".join(parts)
    return "".join(parts)


_TOKEN = re.compile(r"""
    (?P<marker>\(\s*[+-]?\d+\s*,\s*\d+\s*\)) |
    (?P<open>\() |
    (?P<close>\)) |
    (?P<signed>[+-]\d+) |
    (?P<plain>\d+) |
    (?P<ws>\s+) |
    (?P<bad>.)
""", re.VERBOSE)

_MARKER_INNER = re.compile(r"\(\s*([+-]?)(\d+)\s*,\s*(\d+)\s*\)")


def _tokenize(text: str):
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        yield kind, m.group(), m.start()


def _parse_behavior(token: str) -> Behavior:
    """A signed token such as "+2"; unsigned runs are split by the caller."""
    return Behavior(int(token[1:]), 1 if token[0] == "+" else -1)


def asl_parse(text: str) -> Asl:
    """Parse a switching-law string (either text form) and validate it."""
    elements: list[AslElement] = []
    group: Optional[list[Behavior]] = None
    group_pos = 0
    for kind, tok, pos in _tokenize(text):
        if kind == "marker":
            if group is not None:
                raise ParseError("tangent marker inside a virtual group", pos)
            sgn, val, deg = _MARKER_INNER.match(tok).groups()
            sign = None if sgn == "" else (1 if sgn == "+" else -1)
            elements.append(TangentMarker(Behavior(int(val), sign), int(deg)))
        elif kind == "open":
            if group is not None:
                raise ParseError("virtual groups cannot nest", pos)
            group = []
            group_pos = pos
        elif kind == "close":
            if group is None:
                raise ParseError("unmatched ')'", pos)
            if not group:
                raise ParseError("empty virtual group", group_pos)
            elements.append(VirtualGroup(tuple(group)))
            group = None
        else:
            target = group if group is not None else elements
            if kind == "signed":
                target.append(_parse_behavior(tok))
            else:
                for ch in tok:
                    target.append(Behavior(int(ch)))
    if group is not None:
        raise ParseError("unterminated virtual group", group_pos)
    return Asl(tuple(elements))


def check_number(v) -> float:
    """float(v); a boolean or a string is no number, though float() takes it,
    and an integer beyond the float range is none, though JSON reads it."""
    if isinstance(v, (bool, str, bytes)):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError("expected a number, got an integer too large "
                         "for a float") from None


def check_state(x, n: int) -> tuple[float, ...]:
    """Validate and normalize a state tuple of the given order."""
    xs = tuple(check_number(v) for v in x)
    if len(xs) != n:
        raise ValueError(f"state has {len(xs)} components, expected {n}")
    if not all(math.isfinite(v) for v in xs):
        raise ValueError(f"state components must be finite, got {xs}")
    return xs


def check_bounds(M, n: int) -> tuple[Optional[float], ...]:
    """Validate and normalize a bound tuple (M0..Mn; None, +inf: unbounded)."""
    if len(M) != n + 1:
        raise ValueError(f"bound vector has {len(M)} entries, expected {n + 1}")
    out = []
    for k, v in enumerate(M):
        if v is None or (isinstance(v, float) and v == math.inf):
            if k == 0:
                raise ValueError("the input bound M0 must be finite")
            out.append(None)
            continue
        v = check_number(v)
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"bound M{k} must be strictly positive, got {v}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Problem:
    """A planning request: order, boundary states, and bounds."""

    n: int
    x0: tuple[float, ...]
    xf: tuple[float, ...]
    M: tuple[Optional[float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        object.__setattr__(self, "x0", check_state(self.x0, self.n))
        object.__setattr__(self, "xf", check_state(self.xf, self.n))
        object.__setattr__(self, "M", check_bounds(self.M, self.n))
        for name, x in (("initial", self.x0), ("terminal", self.xf)):
            for k in range(1, self.n + 1):
                b = self.M[k]
                if b is not None and abs(x[k - 1]) > b:
                    raise InfeasibleError(
                        f"{name} state x{k}={x[k - 1]} exceeds bound M{k}={b}")


@dataclass(frozen=True)
class Segment:
    """One constant-control piece of a trajectory."""

    u: float
    duration: float
    start: tuple[float, ...]


@dataclass(frozen=True)
class Trajectory:
    """Ordered constant-control segments plus the realized switching law."""

    segments: tuple[Segment, ...]
    t_f: float
    asl: Asl
    problem: Problem

    @cached_property
    def ends(self) -> tuple[float, ...]:
        """Running sums of the durations: segment i ends at ends[i]."""
        return tuple(accumulate((s.duration for s in self.segments),
                                initial=0.0))[1:]

    def control_at(self, t: float) -> float:
        """Control at absolute time t: right-continuous at switching
        instants, the last segment's from its end on, 0.0 with no segments."""
        if not self.segments:
            return 0.0
        i = min(bisect_right(self.ends, t), len(self.segments) - 1)
        return self.segments[i].u

    def state_at(self, t: float) -> tuple[float, ...]:
        """State at absolute time t (clamped to [0, t_f]); at a switching
        instant, the end of the segment that reaches it."""
        if not self.segments:
            return self.problem.x0
        if t <= 0.0:
            return self.segments[0].start
        i = bisect_left(self.ends, t)
        if i == len(self.segments):
            return self.end_state
        seg = self.segments[i]
        return kinematics.propagate(seg.start, seg.u,
                                    t - self.ends[i - 1] if i else t)

    @property
    def end_state(self) -> tuple[float, ...]:
        if not self.segments:
            return self.problem.x0
        last = self.segments[-1]
        return kinematics.propagate(last.start, last.u, last.duration)
