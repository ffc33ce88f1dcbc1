"""Slow, independent ground-truth solvers used by tests and cross-checks.

Deliberately shares only the kinematics primitives (and the law catalog,
which the exhaustive search enumerates over) with the planning path: the
closed forms are derived separately and the stage systems are re-assembled
here from scratch and solved with a library root finder, MINPACK's hybrid
Powell method (``scipy.optimize.root``, method "hybr").

A law with a tangent marker is solved in two parts, split at the touch: the
leg (the stages up to the marker, pinned by its conditions) and the rest
(the stages after it, from the touch state to the goal).  Every law that
starts with the same signed leg shares its solutions, so each leg is solved
once per search.  The oracle finds its legs by multi-start root finding; it
does not call the planner's exact leg solver (``kinematics.touch_roots``),
whose errors it must be able to catch.

The planner's ``solver.solve_times`` calls the same MINPACK routine, but on
residuals it assembles itself; the oracle keeps its own residual closures,
starts and tolerances.  At orders up to 3, only problems with no bounded
interior state reach the planner's solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import sqrt
from typing import Optional

import numpy as np
from scipy.optimize import root

from . import kinematics, laws
from .model import Behavior, Problem, TangentMarker, VirtualGroup


class OracleError(RuntimeError):
    pass


def double_integrator_tf(x0, xf, M0: float, M1: Optional[float] = None) -> float:
    """Minimum time for the two-state problem by the classical peak-speed
    construction: one up-down (or down-up) speed profile, clipped to the
    speed bound with a cruise when the peak exceeds it."""
    v0, p0 = float(x0[0]), float(x0[1])
    vf, pf = float(xf[0]), float(xf[1])
    if M1 is not None and (abs(v0) > M1 or abs(vf) > M1):
        raise OracleError("boundary speed outside its bound")
    dp = pf - p0
    best: Optional[float] = None
    for up in (True, False):
        sign = 1.0 if up else -1.0
        rad = sign * M0 * dp + 0.5 * (v0 * v0 + vf * vf)
        if rad < 0.0:
            continue
        w = sign * sqrt(rad)
        # the peak (trough) must dominate both boundary speeds on its side
        if up and w < max(v0, vf) - 1e-15:
            continue
        if not up and w > min(v0, vf) + 1e-15:
            continue
        if M1 is None or abs(w) <= M1:
            tf = (2.0 * w - v0 - vf) / M0 if up else (v0 + vf - 2.0 * w) / M0
        else:
            vc = sign * M1
            cruise = (dp - (vc * vc - v0 * v0) / (2.0 * M0 * sign)
                      - (vc * vc - vf * vf) / (2.0 * M0 * sign)) / vc
            if cruise < -1e-12:
                continue
            tf = abs(vc - v0) / M0 + abs(vc - vf) / M0 + max(0.0, cruise)
        if tf >= -1e-12 and (best is None or tf < best):
            best = max(0.0, tf)
    if best is None:
        raise OracleError("no speed profile fits the boundary data")
    return best


@dataclass(frozen=True)
class OracleResult:
    t_f: float
    law: str


def _law_residuals(elements, x0, xf, M, n):
    """Residual closure for a signed plain/marker law of order 1 to 3, built
    directly on the chain's constant-control step.

    The law is walked once, here, into steps of (control, pin).  A step
    advances one stage under its control (None for a marker, which has no
    stage of its own), then, if its pin ``(k, target, zeros)`` is not None,
    pins the state at index ``k`` to ``target`` and those at ``zeros`` to
    zero.  The terminal rows pin the end state to ``xf``; with ``xf`` None
    there are none, and the pins of the law's last marker end the system (a
    marker leg).  The closure takes any sequence of stage times and runs
    them as Python floats: numpy scalars would give the same bits, only
    slower.  The stage step is ``kinematics.propagate``'s order-3 step
    written out, on states padded with zeros to three: its first n
    components carry the bits of the order-n step.
    """
    M0 = M[0]
    steps = []
    for e in elements:
        if isinstance(e, Behavior):
            k = e.value
            u = e.sign * M0 if k == 0 else 0.0
            pin = (k - 1, e.sign * M[k], tuple(range(k - 1))) if k else None
            steps.append((u, pin))
        else:  # TangentMarker
            k = e.behavior.value
            zeros = tuple(k - 1 - j for j in range(1, e.degree))
            steps.append((None, (k - 1, e.behavior.sign * M[k], zeros)))
    start = tuple(x0) + (0.0,) * (3 - n)
    goal = () if xf is None else tuple(xf[k] for k in range(n))

    def fun(times):
        times = np.asarray(times, dtype=float).tolist()
        res = []
        x1, x2, x3 = start
        ti = 0
        for u, pin in steps:
            if u is not None:
                t = times[ti]
                ti += 1
                t2 = t * (t / 2)
                x1, x2, x3 = (0.0 + x1 + u * t,
                              0.0 + x2 + x1 * t + u * t2,
                              0.0 + x3 + x2 * t + x1 * t2 + u * (t2 * (t / 3)))
            if pin is not None:
                cur = (x1, x2, x3)
                k, target, zeros = pin
                res.append(cur[k] - target)
                for j in zeros:
                    res.append(cur[j])
        res += [a - b for a, b in zip((x1, x2, x3), goal)]
        return np.array(res)

    return fun


# root searches per signed system, and the largest residual a solution may keep
SEEDS_PER_LAW = 32
RESIDUAL_TOL = 1e-10
# two solutions of one marker leg whose stage times all agree this closely
# are the same touch
SAME_LEG_TOL = 1e-9


def _solutions(elements, x0, xf, M, n, tau, rng):
    """Accepted solutions of one signed system, in the order the starts find
    them: (stage times, end state) pairs.

    The starts climb the seed ladder: one even split of ``tau``, then random
    times on scales tau, 2 tau, 4 tau, 8 tau, and again.  A solution is
    accepted when its residual is at most RESIDUAL_TOL, its times are
    >= -1e-9 (then clipped to zero) and every stage keeps the bounds.  After
    8 starts without an accepted solution the system is given up.
    """
    fun = _law_residuals(elements, x0, xf, M, n)
    stage_count = sum(1 for e in elements if isinstance(e, Behavior))
    hits = 0
    for trial in range(SEEDS_PER_LAW):
        if trial == 0:
            guess = np.full(stage_count, tau / stage_count)
        else:
            # swing solutions sit well above the boundary-difference
            # scale; climb a geometric ladder while restarting
            scale = tau * (2.0 ** ((trial - 1) % 4))
            guess = scale * rng.random(stage_count)
        sol = root(fun, guess, method="hybr", tol=1e-12,
                   options={"maxfev": 40 * (stage_count + 1)})
        if not sol.success and float(np.max(np.abs(sol.fun))) > RESIDUAL_TOL:
            if trial + 1 >= 8 and hits == 0:
                return  # system looks unsolvable for this data
            continue
        times = sol.x
        if np.any(times < -1e-9):
            continue
        times = np.clip(times, 0.0, None)
        if float(np.max(np.abs(fun(times)))) > RESIDUAL_TOL:
            continue
        end = _feasible(elements, x0, M, times)
        if end is None:
            continue
        hits += 1
        yield times, end


def _leg_touches(leg, x0, M, n, tau, rng):
    """Every distinct solution of a marker leg: (leg time, touch state)."""
    found = []
    for times, end in _solutions(leg, x0, None, M, n, tau, rng):
        if all(float(np.max(np.abs(times - other))) > SAME_LEG_TOL
               for other, _ in found):
            found.append((times, end))
    return [(float(np.sum(times)), end) for times, end in found]


def exhaustive_tf(problem: Problem) -> OracleResult:
    """Minimum time over every catalog law by multi-start root finding.

    Each unsigned law is tried with both terminal signs.  A plain law is one
    system, searched from up to SEEDS_PER_LAW starts until three solutions
    are accepted.  A law with a tangent marker is split at the marker: its
    leg is solved once per call for all laws that share it, keeping every
    distinct touch, and the rest of the law is searched like a plain law
    from each touch state; its time is the leg's plus the rest's.  Accepted
    solutions compete on total time.  Only orders up to 3 are supported (the
    catalog is exact there).
    """
    n = problem.n
    if n > 3:
        raise OracleError("exhaustive search supports orders 1..3")
    x0, xf, M = problem.x0, problem.xf, problem.M
    rng = np.random.default_rng(12345)
    tau = 1.0
    for k in range(1, n + 1):
        Mk = M[k - 1]
        if Mk is None:
            continue
        delta = abs(xf[k - 1] - x0[k - 1])
        if delta > 0.0:
            tau = max(tau, (2.0 * delta / Mk) ** (1.0 / k))
    # signed leg -> its (leg time, touch state) solutions; a plain law's
    # empty leg ends where it starts
    touches = {(): [(0.0, x0)]}
    best: Optional[tuple[float, str]] = None
    for law in laws.enumerate_af(n):
        if any(isinstance(e, VirtualGroup) for e in law.elements):
            raise OracleError("virtual groups do not occur at orders 1..3")
        for last in (1, -1):
            elements = laws.assign_signs(law, last).elements
            # the states that stages ride and markers touch must be bounded
            pinned = [e.behavior.value if isinstance(e, TangentMarker)
                      else e.value for e in elements]
            if any(k > 0 and M[k] is None for k in pinned):
                continue
            cut = next((i + 1 for i, e in enumerate(elements)
                        if isinstance(e, TangentMarker)), 0)
            leg, rest = elements[:cut], elements[cut:]
            if leg not in touches:
                touches[leg] = _leg_touches(leg, x0, M, n, tau, rng)
            for t_leg, start in touches[leg]:
                for times, _ in islice(
                        _solutions(rest, start, xf, M, n, tau, rng), 3):
                    tf = t_leg + float(np.sum(times))
                    if best is None or tf < best[0] - 1e-15:
                        best = (tf, laws.canonical(law))
    if best is None:
        raise OracleError("no catalog law admits a feasible solution")
    return OracleResult(best[0], best[1])


def _feasible(elements, x0, M, times) -> Optional[tuple[float, ...]]:
    """The end state of the law's stages run from ``x0``, or None when a
    stage leaves the bounds."""
    cur = tuple(x0)
    ti = 0
    M0 = M[0]
    for e in elements:
        if not isinstance(e, Behavior):
            continue
        u = e.sign * M0 if e.value == 0 else 0.0
        if kinematics.segment_bound_check(cur, u, float(times[ti]), M, 1e-9):
            return None
        cur = kinematics.propagate(cur, u, float(times[ti]))
        ti += 1
    return cur
