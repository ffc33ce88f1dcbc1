"""Stage-time solving for a signed switching law and boundary data.

A law plus boundary states induces a square system: one duration per
saturation/riding stage and per virtual-group member, against the riding
conditions, tangent-marker conditions, and the terminal state.  Intermediate
states are eliminated by forward propagation, so the unknown vector holds
durations only; the classic per-stage variable/equation balance is still
reported for auditing.

Virtual groups solve as a side branch: the branch re-runs the stage
preceding the group from that stage's entry state for its own (longer)
duration, then chains through the members; each member's riding conditions
pin its entry state.  The real chain continues from the point where the
preceding stage actually stopped, so group durations never contribute to
the realized trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kinematics
from .model import (
    Asl,
    Behavior,
    Problem,
    Segment,
    TangentMarker,
    Trajectory,
    VirtualGroup,
)


class AssembleError(ValueError):
    """The law cannot be formed into a well-posed system for these bounds."""


def _control_of(b: Behavior, M0: float) -> float:
    return b.sign * M0 if b.value == 0 else 0.0


def stage_controls(asl: Asl, M0: float) -> list[float]:
    """Control value for every stage holding one: saturation stages take the
    signed input bound, bound-riding stages ride with zero input.  Group
    members are included; tangent markers carry no control."""
    out: list[float] = []
    for e in asl.elements:
        if isinstance(e, Behavior):
            out.append(_control_of(e, M0))
        elif isinstance(e, VirtualGroup):
            for m in e.members:
                out.append(_control_of(m, M0))
    return out


# ops: ("adv", u, t_idx)            real chain advance
#      ("ride", k, sign)            riding residuals at the current state
#      ("mark", k, sign, degree)    marker residuals at the current state
#      ("vstart", u, t_idx)         virtual branch leaves the pre-stage state
#      ("vadv", u, t_idx)           virtual chain advance
#      ("vride", k, sign)           riding residuals on the virtual state


@dataclass(frozen=True)
class StageSystem:
    """Compiled residual program for one signed law and boundary pair."""

    asl: Asl
    n: int
    x0: tuple[float, ...]
    xf: tuple[float, ...]
    M: tuple[Optional[float], ...]
    ops: tuple[tuple, ...]
    controls: tuple[float, ...]          # one per time unknown
    num_unknowns: int                    # durations
    num_equations: int                   # scaled residuals
    stage_count: int                     # behaviors + group members
    scales: tuple[float, ...]
    terminal: tuple[tuple[int, float], ...]   # (state index, target value)

    @property
    def stage_variable_count(self) -> int:
        """Variables of the unreduced per-stage formulation (state + time per
        stage, terminal state substituted)."""
        return self.stage_count * (self.n + 1) - self.n

    @property
    def stage_equation_count(self) -> int:
        """Equations of the unreduced formulation: n propagation equations
        per stage plus the riding/marker conditions."""
        return self.stage_count * self.n + (self.num_equations - len(self.terminal))

    def residuals(self, times: Sequence[float]) -> np.ndarray:
        # Newton hands in numpy arrays; Python floats make propagate cheaper
        times = np.asarray(times, dtype=float).tolist()
        out = np.empty(self.num_equations)
        idx = 0
        cur = self.x0
        prev = self.x0                   # state entering the current stage
        virt = self.x0
        scales = self.scales
        for op in self.ops:
            code = op[0]
            if code == "adv":
                prev = cur
                cur = kinematics.propagate(cur, op[1], times[op[2]])
            elif code == "ride":
                k, sign = op[1], op[2]
                out[idx] = (cur[k - 1] - sign * self.M[k]) / scales[k - 1]
                idx += 1
                for j in range(1, k):
                    out[idx] = cur[j - 1] / scales[j - 1]
                    idx += 1
            elif code == "mark":
                k, sign, degree = op[1], op[2], op[3]
                out[idx] = (cur[k - 1] - sign * self.M[k]) / scales[k - 1]
                idx += 1
                for j in range(1, degree):
                    out[idx] = cur[k - 1 - j] / scales[k - 1 - j]
                    idx += 1
            elif code == "vstart":
                virt = kinematics.propagate(prev, op[1], times[op[2]])
            elif code == "vadv":
                virt = kinematics.propagate(virt, op[1], times[op[2]])
            else:  # "vride"
                k, sign = op[1], op[2]
                out[idx] = (virt[k - 1] - sign * self.M[k]) / scales[k - 1]
                idx += 1
                for j in range(1, k):
                    out[idx] = virt[j - 1] / scales[j - 1]
                    idx += 1
        for k, value in self.terminal:
            out[idx] = (cur[k - 1] - value) / scales[k - 1]
            idx += 1
        return out

    def end_state(self, times: Sequence[float]) -> tuple[float, ...]:
        cur = self.x0
        for op in self.ops:
            if op[0] == "adv":
                cur = kinematics.propagate(cur, op[1], times[op[2]])
        return cur


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
    conditions on unbounded states, or a law whose freedom does not match
    the number of end conditions.
    """
    n = len(x0)
    if len(xf) != n:
        raise AssembleError("boundary states differ in length")
    if not asl.signed and len(asl) > 0:
        raise AssembleError("law must be signed before assembly")
    if terminal is None:
        terminal = tuple((k, float(xf[k - 1])) for k in range(1, n + 1))
    M0 = M[0]
    ops: list[tuple] = []
    controls: list[float] = []
    times = 0
    residuals = 0
    stage_count = 0
    elems = asl.elements
    for i, e in enumerate(elems):
        if isinstance(e, Behavior):
            u = _control_of(e, M0)
            ops.append(("adv", u, times))
            controls.append(u)
            times += 1
            stage_count += 1
            if e.value != 0:
                if e.value > n:
                    raise AssembleError(f"behavior value {e.value} above order {n}")
                _ride_bound(M, e.value, "riding stage")
                ops.append(("ride", e.value, e.sign))
                residuals += e.value
        elif isinstance(e, TangentMarker):
            k = e.behavior.value
            if k > n:
                raise AssembleError(f"marker value {k} above order {n}")
            _ride_bound(M, k, "tangent marker")
            ops.append(("mark", k, e.behavior.sign, e.degree))
            residuals += e.degree
        else:
            if i == 0 or not isinstance(elems[i - 1], Behavior):
                raise AssembleError("virtual group lacks a preceding stage")
            lead: Behavior = elems[i - 1]
            ops.append(("vstart", _control_of(lead, M0), times))
            controls.append(_control_of(lead, M0))
            times += 1
            stage_count += 1
            for j, m in enumerate(e.members):
                if m.value != 0:
                    if m.value > n:
                        raise AssembleError(
                            f"group member value {m.value} above order {n}")
                    _ride_bound(M, m.value, "virtual riding stage")
                    ops.append(("vride", m.value, m.sign))
                    residuals += m.value
                if j + 1 < len(e.members):
                    ops.append(("vadv", _control_of(m, M0), times))
                    controls.append(_control_of(m, M0))
                    times += 1
                    stage_count += 1
    scales = tuple(
        max(1.0, M[k]) if M[k] is not None
        else max(1.0, abs(x0[k - 1]), abs(xf[k - 1]))
        for k in range(1, n + 1)
    )
    system = StageSystem(
        asl=asl, n=n, x0=tuple(map(float, x0)), xf=tuple(map(float, xf)),
        M=tuple(M), ops=tuple(ops), controls=tuple(controls),
        num_unknowns=times, num_equations=residuals + len(terminal),
        stage_count=stage_count, scales=scales, terminal=tuple(terminal),
    )
    if system.num_unknowns != system.num_equations:
        raise AssembleError(
            f"law '{asl.text()}' yields {system.num_unknowns} durations but "
            f"{system.num_equations} conditions; its freedom must equal the order")
    return system


@dataclass(frozen=True)
class Solved:
    """Converged durations plus the real-chain states they induce."""

    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    residual: float


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


def solve_times(system: StageSystem,
                seeds: Optional[Sequence[Sequence[float]]] = None,
                max_restarts: int = 8, tol: float = 1e-10,
                seed: int = 0, accept=None) -> Optional[Solved]:
    """Solve the stage system by damped Newton iteration with projection of
    durations onto [0, inf) and seeded randomized restarts.

    ``accept`` optionally filters converged roots (systems can have several);
    rejected roots are discarded and further seeds are tried.  Returns the
    shortest-total-time accepted solution, or None when no seed converges.
    """
    T = system.num_unknowns
    if T == 0:
        r = system.residuals(())
        err = float(np.max(np.abs(r))) if len(r) else 0.0
        return Solved((), (), err) if err < tol else None
    tau = _seed_scale(system)
    trial_seeds: list[np.ndarray] = []
    if seeds is not None:
        trial_seeds.extend(np.asarray(s, dtype=float) for s in seeds)
    else:
        trial_seeds.append(np.full(T, tau))
        rng = np.random.default_rng(seed)
        base = tau if tau > 0.0 else 1.0
        # restarts climb a geometric scale ladder: roots can sit far above
        # the boundary-difference scale when the states swing back and forth
        for i in range(max_restarts):
            scale = base * (2.0 ** (i // 2))
            trial_seeds.append(scale * (0.25 + 1.75 * rng.random(T)))
    best: Optional[Solved] = None
    hits = 0
    for start in trial_seeds:
        sol = _newton(system, np.clip(np.asarray(start, dtype=float), 0.0, None), tol)
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


def _newton(system: StageSystem, t: np.ndarray, tol: float) -> Optional[Solved]:
    T = len(t)
    r = system.residuals(t)
    merit = float(r @ r)
    for _ in range(80):
        err = float(np.max(np.abs(r)))
        if err < tol:
            return _package(system, t)
        J = np.empty((len(r), T))
        for i in range(T):
            h = 1e-7 * max(1.0, abs(t[i]))
            tp = t.copy()
            tp[i] += h
            J[:, i] = (system.residuals(tp) - r) / h
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        improved, t, r, merit = _line_search(system, t, r, merit, step)
        if not improved:
            # roots can sit on the boundary of the time domain; pin the
            # coordinates pressed against zero and re-solve on the rest
            active = [i for i in range(T) if t[i] <= 0.0 and step[i] < 0.0]
            if active and len(active) < T:
                free = [i for i in range(T) if i not in active]
                sub, *_ = np.linalg.lstsq(J[:, free], -r, rcond=None)
                step2 = np.zeros(T)
                step2[free] = sub
                if np.all(np.isfinite(step2)):
                    improved, t, r, merit = _line_search(system, t, r, merit,
                                                         step2)
        if not improved:
            return None
    if float(np.max(np.abs(r))) < tol:
        return _package(system, t)
    return None


def _line_search(system: StageSystem, t: np.ndarray, r: np.ndarray,
                 merit: float, step: np.ndarray):
    alpha = 1.0
    for _ in range(20):
        t_new = np.clip(t + alpha * step, 0.0, None)
        r_new = system.residuals(t_new)
        m_new = float(r_new @ r_new)
        if m_new < merit:
            return True, t_new, r_new, m_new
        alpha *= 0.5
    return False, t, r, merit


def _package(system: StageSystem, t: np.ndarray) -> Optional[Solved]:
    times = []
    for v in t:
        if v < -1e-12:
            return None
        times.append(max(0.0, float(v)))
    err = float(np.max(np.abs(system.residuals(times))))
    cur = system.x0
    states = []
    for op in system.ops:
        if op[0] == "adv":
            cur = kinematics.propagate(cur, op[1], times[op[2]])
            states.append(cur)
    return Solved(tuple(times), tuple(states), err)


def realize(asl: Asl, solved: Solved, x0, xf, M) -> Trajectory:
    """Trajectory of the real chain: virtual stages are solved but never
    traversed; tangent markers split their surrounding saturation run."""
    n = len(x0)
    problem = Problem(n, tuple(x0), tuple(xf), tuple(M))
    segments: list[Segment] = []
    cur = tuple(map(float, x0))
    ti = 0
    M0 = M[0]
    for e in asl.elements:
        if isinstance(e, Behavior):
            u = _control_of(e, M0)
            dur = solved.times[ti]
            segments.append(Segment(u, dur, cur))
            cur = kinematics.propagate(cur, u, dur)
            ti += 1
        elif isinstance(e, VirtualGroup):
            ti += len(e.members)          # virtual durations, never traversed
    t_f = sum(s.duration for s in segments)
    return Trajectory(tuple(segments), t_f, asl, problem)


@dataclass(frozen=True)
class VerifyFailure:
    reason: str
    k: int = 0
    t: float = 0.0
    value: float = 0.0


def verify(trajectory: Trajectory, M, eps: float = 1e-9) -> Optional[VerifyFailure]:
    """Feasibility check: nonnegative durations, all bounds along every
    segment, and the terminal state within eps of the target (scaled)."""
    t_off = 0.0
    for seg in trajectory.segments:
        if seg.duration < -1e-12:
            return VerifyFailure("negative duration", t=seg.duration)
        dur = max(0.0, seg.duration)
        v = kinematics.segment_bound_check(seg.start, seg.u, dur, M, eps)
        if v is not None:
            return VerifyFailure("state bound exceeded", k=v.k,
                                 t=t_off + v.t, value=v.value)
        t_off += dur
    end = trajectory.end_state
    xf = trajectory.problem.xf
    for k in range(1, len(xf) + 1):
        bound = M[k] if k < len(M) else None
        scale = max(1.0, bound) if bound is not None else max(1.0, abs(xf[k - 1]))
        if abs(end[k - 1] - xf[k - 1]) > eps * scale:
            return VerifyFailure("terminal state off target", k=k,
                                 t=trajectory.t_f, value=end[k - 1])
    return None
