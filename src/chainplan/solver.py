"""Stage-time solving for a signed switching law and boundary data.

A law plus boundary states induces a square system: one duration per
saturation/riding stage and per virtual-group member, against the riding
conditions, tangent-marker conditions, and the terminal state.  Intermediate
states are eliminated by forward propagation, so the unknown vector holds
durations only.  ``solve_times`` finds its roots from a seeded ladder of
starts, each polished by Newton's method on the walk's exact Jacobian with
least-squares steps: ``kinematics.root``, the polish the oracle uses too.
It imports numpy, for its restarts' seeded draws, on its first call, so
that importing the planner does not load it.

A virtual group solves as a side branch: the branch re-runs the stage
preceding the group from that stage's entry state for its own (longer)
duration, and the group's one member's riding conditions pin the state it
reaches.  The real chain continues from the point where the preceding stage
actually stopped, so group durations never contribute to the realized
trajectory.  The only group in a catalog that can be built is the single
ride ``(3)``, so a group of more than one member is not assembled.

``verify`` checks any trajectory, planned or read from a file, in one pass
over its segments: each segment's bounds by ``kinematics.segment_bound_check``
and its end by its own ``propagate``, independent of the planner's scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kinematics
from .model import Asl, Behavior, TangentMarker, Trajectory


class AssembleError(ValueError):
    """The law cannot be formed into a well-posed system for these bounds."""


def _control_of(b: Behavior, M0: float) -> float:
    return b.sign * M0 if b.value == 0 else 0.0


# A residual program is a tuple of steps (advance, u, time index, pins).
# The advance names the state x that the pins read:
#   _ADV     real chain: cur = propagate(cur, u, times[i]); x = cur
#   _VSTART  virtual branch from the state entering the last real stage:
#            x = propagate(prev, u, times[i])
# Each pin (state index, target, scale) yields the residual
# (x[index] - target) / scale.
_ADV, _VSTART = range(2)


@dataclass(frozen=True)
class StageSystem:
    """Compiled residual program for one signed law and boundary pair."""

    asl: Asl
    n: int
    x0: tuple[float, ...]
    xf: tuple[float, ...]
    M: tuple[Optional[float], ...]
    program: tuple[tuple, ...]
    controls: tuple[float, ...]          # one per time unknown
    num_unknowns: int                    # durations: behaviors + group members
    num_equations: int                   # scaled residuals

    def walk(self, times: Sequence[float], jacobian: bool = False
             ) -> tuple[list[float], Optional[list[list[float]]], list]:
        """Scaled residuals at the given durations, their Jacobian as rows
        (None unless asked for), and the real chain's state after each of
        its stages.  Pass Python floats: numpy scalars would make every
        propagate step run in numpy.

        The Jacobian is exact, its columns those of
        ``kinematics.stage_columns``, one per duration in program order.  A
        virtual branch's duration moves only the branch, so the real chain
        gives it a zero column; the branch carries the columns as they
        stood before the last real stage, whose duration it does not run,
        and adds its own.  A pin's row is its state's component of each
        column over the pin's scale, and 0 for the durations still ahead."""
        propagate = kinematics.propagate
        columns = kinematics.stage_columns
        out = []
        rows = []
        states = []
        cur = prev = self.x0
        cols = prev_cols = []
        for code, u, i, pins in self.program:
            t = times[i]
            if code == _ADV:
                prev = cur
                x = cur = propagate(cur, u, t)
                states.append(cur)
                if jacobian:
                    prev_cols = cols
                    cols = x_cols = columns(cols, u, t, x)
            else:
                x = propagate(prev, u, t)
                if jacobian:
                    zero = (0.0,) * self.n
                    x_cols = columns(prev_cols + [zero], u, t, x)
                    cols = cols + [zero]
            for k, target, scale in pins:
                out.append((x[k] - target) / scale)
                if jacobian:
                    row = [c[k] / scale for c in x_cols]
                    rows.append(row + [0.0] * (self.num_unknowns - len(row)))
        return out, rows if jacobian else None, states

    def stages(self, times: Sequence[float]) -> tuple[tuple[float, float], ...]:
        """The real chain's (control, duration) stages at the given
        durations, one per behavior: virtual-group durations are dropped."""
        return tuple((u, times[i]) for code, u, i, _ in self.program
                     if code == _ADV)


def _scales(M, states) -> tuple[float, ...]:
    """The scale of state k's errors: max(1, Mk), or the largest of 1 and
    |x_k| over the given states where x_k is unbounded."""
    return tuple(max(1.0, M[k]) if M[k] is not None
                 else max([1.0] + [abs(x[k - 1]) for x in states])
                 for k in range(1, len(states[0]) + 1))


def _ride_bound(M, k: int, where: str) -> float:
    if M[k] is None:
        raise AssembleError(f"{where} requires a finite bound M{k}")
    return M[k]


def assemble(asl: Asl, x0, xf, M,
             terminal: Optional[tuple[tuple[int, float], ...]] = None) -> StageSystem:
    """Build the residual system for a signed law.

    ``terminal`` overrides the end conditions: a tuple of (state index,
    target value) pairs instead of the full terminal-state equality, as
    used by tangent-marker reach legs.

    Raises AssembleError for structural mismatches: unsigned laws, riding
    conditions on unbounded states, a real-chain condition with no real
    stage right before it (an empty law, or one that ends in a virtual
    group), a virtual group of more than one member, or a law whose freedom
    does not match the number of end conditions.
    """
    n = len(x0)
    if len(xf) != n:
        raise AssembleError("boundary states differ in length")
    if not asl.signed and len(asl) > 0:
        raise AssembleError("law must be signed before assembly")
    if terminal is None:
        terminal = tuple((k, float(xf[k - 1])) for k in range(1, n + 1))
    M0 = M[0]
    scales = _scales(M, (x0, xf))
    steps: list[tuple[int, float, int, list]] = []
    controls: list[float] = []

    def advance(code: int, u: float) -> None:
        steps.append((code, u, len(controls), []))
        controls.append(u)

    def pin(k: int, target: float, virtual: bool = False) -> None:
        # a pin reads the state its step reached
        if not virtual and (not steps or steps[-1][0] != _ADV):
            raise AssembleError("a real-chain condition needs a real stage "
                                "before it")
        steps[-1][3].append((k - 1, target, scales[k - 1]))

    def ride(k: int, sign: int, virtual: bool = False) -> None:
        pin(k, sign * M[k], virtual)
        for j in range(1, k):
            pin(j, 0.0, virtual)

    elems = asl.elements
    for i, e in enumerate(elems):
        if isinstance(e, Behavior):
            advance(_ADV, _control_of(e, M0))
            if e.value != 0:
                if e.value > n:
                    raise AssembleError(f"behavior value {e.value} above order {n}")
                _ride_bound(M, e.value, "riding stage")
                ride(e.value, e.sign)
        elif isinstance(e, TangentMarker):
            k = e.behavior.value
            if k > n:
                raise AssembleError(f"marker value {k} above order {n}")
            _ride_bound(M, k, "tangent marker")
            pin(k, e.behavior.sign * M[k])
            for j in range(1, e.degree):
                pin(k - j, 0.0)
        else:
            if i == 0 or not isinstance(elems[i - 1], Behavior):
                raise AssembleError("virtual group lacks a preceding stage")
            if len(e.members) > 1:
                raise AssembleError("a virtual group of more than one member "
                                    "cannot be assembled")
            advance(_VSTART, _control_of(elems[i - 1], M0))
            (m,) = e.members
            if m.value != 0:
                if m.value > n:
                    raise AssembleError(
                        f"group member value {m.value} above order {n}")
                _ride_bound(M, m.value, "virtual riding stage")
                ride(m.value, m.sign, virtual=True)
    for k, value in terminal:
        pin(k, value)
    program = tuple((code, u, i, tuple(pins)) for code, u, i, pins in steps)
    system = StageSystem(
        asl=asl, n=n, x0=tuple(map(float, x0)), xf=tuple(map(float, xf)),
        M=tuple(M), program=program, controls=tuple(controls),
        num_unknowns=len(controls),
        num_equations=sum(len(step[3]) for step in program),
    )
    if system.num_unknowns != system.num_equations:
        raise AssembleError(
            f"law '{asl.text()}' yields {system.num_unknowns} durations but "
            f"{system.num_equations} conditions; its freedom must equal the order")
    return system


@dataclass(frozen=True)
class Solved:
    """Accepted durations plus the real-chain states they induce."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]


def _seed_scale(system: StageSystem) -> float:
    tau = 0.0
    for k in range(1, system.n + 1):
        Mk = system.M[k - 1]
        if Mk is None:
            Mk = system.M[0]      # unbounded rates still move at the input scale
        delta = abs(system.xf[k - 1] - system.x0[k - 1])
        if delta > 0.0:
            tau = max(tau, (2.0 * delta / Mk) ** (1.0 / k))
    return tau / max(1, system.num_unknowns)


# a root is accepted once every scaled residual is below RESIDUAL_TOL; the
# restarts draw from a fixed seed, so solves are deterministic
RESIDUAL_TOL = 1e-10
RESTART_SEED = 0


def solve_times(system: StageSystem, max_restarts: int = 8,
                accept=None) -> Optional[Solved]:
    """Solve the stage system from seeded randomized starts, each polished
    by ``kinematics.root``, Newton's method with least-squares steps on the
    walk's exact Jacobian.

    A root must pass ``accepted``; the optional ``accept`` filters these
    further (systems can have several roots).  Returns the shortest in
    total time of the first three hits, or None when no start yields one.
    """
    import numpy as np  # slow to import; few plans get here

    def fun(times, jacobian):  # the polish's view of the walk
        return system.walk(times, jacobian)[:2]

    T = system.num_unknowns
    tau = _seed_scale(system)
    starts = [[tau] * T]
    rng = np.random.default_rng(RESTART_SEED)
    base = tau if tau > 0.0 else 1.0
    # restarts climb a geometric scale ladder: roots can sit far above the
    # boundary-difference scale when the states swing back and forth
    for i in range(max_restarts):
        scale = base * (2.0 ** (i // 2))
        starts.append((scale * (0.25 + 1.75 * rng.random(T))).tolist())
    best: Optional[Solved] = None
    hits = 0
    for start in starts:
        sol = accepted(system, kinematics.root(fun, start).x)
        if sol is None:
            continue
        if accept is not None and not accept(sol):
            continue
        hits += 1
        if best is None or sum(sol.times) < sum(best.times):
            best = sol
        if hits >= 3:
            break
    return best


def accepted(system: StageSystem, t: Sequence[float]) -> Optional[Solved]:
    """Solved at durations t, or None if they fail the acceptance rule: no
    duration below -1e-12 and every scaled residual below RESIDUAL_TOL at
    the durations clipped to >= 0."""
    if not all(v >= -1e-12 for v in t):
        return None
    times = [max(0.0, v) for v in t]
    residuals, _, states = system.walk(times)
    if not all(abs(r) < RESIDUAL_TOL for r in residuals):
        return None
    return Solved(tuple(times), tuple(states))


@dataclass(frozen=True)
class VerifyFailure:
    reason: str
    k: int = 0
    t: float = 0.0
    value: float = 0.0


def verify(trajectory: Trajectory, M, eps: float = 1e-9) -> Optional[VerifyFailure]:
    """Feasibility check of the whole path: finite controls and durations,
    nonnegative durations, |u| <= M0, a path that starts at x0 and has no
    jumps between segments, all bounds along every segment, the terminal
    state within eps of the target, and t_f the sum of the durations; a NaN
    anywhere fails.  State k's start and terminal errors scale by
    max(1, Mk), or by max(1, |xf_k|) where x_k is unbounded."""
    problem = trajectory.problem
    xf = problem.xf
    tols = [eps * s for s in _scales(M, (xf,))]
    lim0 = M[0] + eps
    t_off = 0.0
    end = problem.x0
    for seg in trajectory.segments:
        u, dur, start = seg.u, seg.duration, seg.start
        if not (math.isfinite(u) and math.isfinite(dur)):
            return VerifyFailure("non-finite control or duration", t=t_off)
        if dur < -1e-12:
            return VerifyFailure("negative duration", t=dur)
        if abs(u) > lim0:
            return VerifyFailure("input bound exceeded", t=t_off, value=u)
        # the first state k that misses the path by more than its tol (a
        # NaN misses)
        k = 0
        for a, b, tol in zip(start, end, tols):
            k += 1
            if not abs(a - b) <= tol:
                return VerifyFailure("segment start off the path", k=k,
                                     t=t_off, value=a)
        T = dur if dur > 0.0 else 0.0
        v = kinematics.segment_bound_check(start, u, T, M, eps)
        if v is not None:
            return VerifyFailure("state bound exceeded", k=v.k,
                                 t=t_off + v.t, value=v.value)
        t_off += T
        end = kinematics.propagate(start, u, dur)
    t_f = trajectory.t_f
    k = 0
    for a, b, tol in zip(end, xf, tols):
        k += 1
        if not abs(a - b) <= tol:
            return VerifyFailure("terminal state off target", k=k, t=t_f,
                                 value=a)
    total = sum(seg.duration for seg in trajectory.segments)
    if not abs(t_f - total) <= eps * max(1.0, abs(t_f)):
        return VerifyFailure("t_f differs from the summed durations", t=t_f,
                             value=total)
    return None
