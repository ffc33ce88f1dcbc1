"""Independent ground-truth solvers used by tests and cross-checks.

Shares with the planning path only the law catalog, which the exhaustive
search enumerates, and kinematics' exact primitives: ``propagate``, the
stage step of its residuals and of its bound walk; ``horner``, ``poly_add``
and ``poly_mul``, its polynomial arithmetic; and ``segment_bound_check``,
which at orders up to 3 takes a state's extremes in closed form.  It calls
no root solver of the planner (``kinematics.real_roots``, ``touch_roots``,
``bracket_root``), no stage solver (``solver.assemble``,
``solver.solve_times``) and not the planner, whose errors it must be able
to catch: its closed forms are derived separately and its stage systems are
built here from scratch.

``exhaustive_tf`` takes every real solution of every signed catalog law of
order up to 3.  Each signed system is solved by elimination, in closed form
or through the real roots (``np.roots``) of one univariate polynomial of
degree at most 6.  Each root with no stage time below -BACKWARD_TOL
max(1, max|t|) is polished once by a library root finder, MINPACK's hybrid
Powell method (``scipy.optimize.root``, method "hybr"), on the system's own
residual.  A root with such a time runs a stage backward and is dropped
unpolished, and so is every root of a closed-form choice whose fixed
durations already do, before its polynomial is built.  So "no catalog law
admits a feasible solution" is a statement about the catalog, not about a
search's starts.

A law with a tangent marker is solved in two parts, split at the touch: the
leg (the stages up to the marker, pinned by its conditions) and the rest
(the stages after it, from the touch state to the goal).  Every law that
starts with the same signed leg shares its solutions, so each leg is solved
once per search.

The planner's ``solver.solve_times`` calls the same MINPACK routine, but on
residuals it assembles itself, from seeded starts.  At orders up to 3, only
problems with no bounded interior state reach the planner's solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import sqrt
from typing import Optional

import numpy as np
from scipy.optimize import root

from . import kinematics, laws
from .model import Behavior, Problem, TangentMarker


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


def _control(e: Behavior, M0: float) -> float:
    """A stage's control: +-M0 on a bang, 0 on a ride."""
    return e.sign * M0 if e.value == 0 else 0.0


def _law_residuals(elements, x0, xf, M, n):
    """Residual closure for a signed plain/marker law of order 1 to 3, built
    directly on the chain's constant-control step, ``kinematics.propagate``.

    The law is walked once, here, into steps of (control, pin).  A step
    advances one stage under its control (None for a marker, which has no
    stage of its own), then, if its pin ``(k, target, zeros)`` is not None,
    pins the state at index ``k`` to ``target`` and those at ``zeros`` to
    zero.  The terminal rows pin the end state to ``xf``; with ``xf`` None
    there are none, and the pins of the law's last marker end the system (a
    marker leg).  The closure takes any sequence of stage times and runs
    them as Python floats: numpy scalars would give the same bits, only
    slower.
    """
    M0 = M[0]
    steps = []
    for e in elements:
        if isinstance(e, Behavior):
            k = e.value
            pin = (k - 1, e.sign * M[k], tuple(range(k - 1))) if k else None
            steps.append((_control(e, M0), pin))
        else:  # TangentMarker
            k = e.behavior.value
            zeros = tuple(k - 1 - j for j in range(1, e.degree))
            steps.append((None, (k - 1, e.behavior.sign * M[k], zeros)))
    start = tuple(x0)
    goal = () if xf is None else tuple(xf)

    def fun(times):
        times = np.asarray(times, dtype=float).tolist()
        propagate = kinematics.propagate
        res = []
        x = start
        ti = 0
        for u, pin in steps:
            if u is not None:
                x = propagate(x, u, times[ti])
                ti += 1
            if pin is not None:
                k, target, zeros = pin
                res.append(x[k] - target)
                for j in zeros:
                    res.append(x[j])
        res += [a - b for a, b in zip(x, goal)]
        return np.array(res)

    return fun


# the largest residual a solution may keep
RESIDUAL_TOL = 1e-10
# two solutions of one marker leg whose stage times all agree this closely
# are the same touch
SAME_LEG_TOL = 1e-9
# a start with a stage time below -BACKWARD_TOL max(1, max|t|) runs that
# stage backward and is not polished (``_backward``)
BACKWARD_TOL = 1e-3


# Polynomials in the one unknown z are coefficient lists, item i multiplying
# z^i, summed and multiplied by kinematics' ``poly_add`` and ``poly_mul``.
# A system with two free junctions adjoins the second as w, with w^2 = R(z)
# from its x2 equation; its quantities are pairs (P, Q), meaning
# P(z) + w Q(z), and a product is reduced by w^2 = R.

def _radd(x, y):
    add = kinematics.poly_add
    return add(x[0], y[0]), add(x[1], y[1]) if x[1] or y[1] else []


def _rscale(x, c):
    return [c * a for a in x[0]], [c * a for a in x[1]] if x[1] else []


def _rmul(x, y, R):
    add, mul = kinematics.poly_add, kinematics.poly_mul
    (p, q), (r, s) = x, y
    if not q and not s:
        return mul(p, r), []
    return add(mul(p, r), mul(mul(q, s), R)), add(mul(p, s), mul(q, r))


def _const(c):
    return [c], []


_Z = ([0.0, 1.0], [])
_W = ([], [1.0])


def _real_zeros(p):
    """The real roots of ``p``, from ``np.roots``: the real part of every
    root where ``p`` nearly vanishes, so that a double root split into a
    complex pair by rounding is kept, also at zero.  "Nearly" is a backward
    error |p(x)| / (|p| |(1, x, ..., x^d)|) of at most 1e-10.  Leading
    coefficients lost to cancellation are dropped first; they only stand
    for roots far beyond any stage."""
    p = list(p)
    big = max((abs(c) for c in p), default=0.0)
    while p and abs(p[-1]) <= 1e-12 * big:
        p.pop()
    if len(p) < 2:
        return []
    if len(p) == 2:
        return [-p[0] / p[1]]
    norm = sqrt(sum(c * c for c in p))
    out = []
    for z in np.roots(p[::-1]):
        x = float(z.real)
        powers = sqrt(sum(x ** (2 * k) for k in range(len(p))))
        if abs(kinematics.horner(p, x)) <= 1e-10 * norm * powers:
            out.append(x)
    return out


def _backward(times) -> bool:
    """Whether stage times run a stage backward: one lies below
    -BACKWARD_TOL max(1, max|t|).

    An elimination candidate lies within rounding of its solution, except
    where the system's Jacobian is singular: a double root is pinned only
    to about the square or cube root of the rounding error, 5e-6 of the
    times' scale at most in ``TestElimination``'s double roots.  So a
    candidate of a solution with times >= -1e-9 has no time below -5e-6 of
    that scale, and BACKWARD_TOL lies 200 times beyond.  A start below it
    is dropped unpolished: ``_solutions`` rejects times below -1e-9.

    Where a stage has zero length, the three-bang law's solutions form a
    curve (its outer stages trade duration), and a backward start on it can
    polish to an accepted point of the curve.  Dropping such a start drops
    that point, so on such a problem ``exhaustive_tf`` can name another
    law.  On the order-3 corpora of CHANGES.md no dropped start would have
    been accepted."""
    return bool(times) and min(times) < -BACKWARD_TOL * max(
        1.0, max(abs(t) for t in times))


def _candidates(elements, x0, xf, M, n):
    """Stage times of every real solution of one signed system of order 1 to
    3, by elimination: the starts that ``_roots_of`` polishes.

    The unknowns are the x1 values where two bang stages meet (and at a
    marker leg's touch) and the cruise durations.  A bang's duration is its
    x1 change over its control, so every x1 equation holds by construction.
    A +-2 cruise pins (x1, x2) = (0, +-M2) and cuts the law into pieces; each
    piece has one x2 equation, quadratic in its junctions and linear in its
    +-1 cruise durations.  A piece with one unknown is solved for it in
    closed form.  A piece with two (a law with no +-2 cruise, or a leg)
    keeps the first as z and gives the second from the x2 equation: a
    cruise duration as a polynomial in z, a junction as w with w^2 = R(z).
    What is left, z or the +-2 cruise's duration, is pinned by x3 = F + w G:
    its real roots are those of F, or of F^2 - R G^2 with w = +-sqrt(R) of
    the sign that cancels.

    A combination of closed-form choices whose fixed durations (those with
    no z and no w) run a stage backward (``_backward``) gives no candidate:
    it is dropped before its x3 polynomial is built.  The -r branch of a
    +-2 cruise law's one-unknown piece is such a choice.
    """
    M0 = M[0]
    horner = kinematics.horner
    stages = [e for e in elements if isinstance(e, Behavior)]
    start = tuple(x0) + (0.0,) * (3 - n)
    if xf is None:  # a marker leg: x2 = 0 and x3 = sigma M3 at the touch
        goal = (None, 0.0, elements[-1].behavior.sign * M[3])
    else:
        goal = tuple(xf) + (None,) * (3 - n)
    # x1 at each stage boundary; None where it is an unknown
    X = [start[0]] + [None] * len(stages)
    for i, e in enumerate(stages):
        if e.value:
            X[i] = X[i + 1] = e.sign * M[1] if e.value == 1 else 0.0
    X[-1] = goal[0]
    cuts = [i for i, e in enumerate(stages) if e.value == 2]
    # the +-2 cruises' durations are the x3 unknown z
    fixed = {("t", i): _Z for i in cuts}
    R = []
    choices = []
    edges = [-1] + cuts + [len(stages)]
    for a, b in zip(edges, edges[1:]):
        if goal[1] is None:  # order 1: no x2 equation
            continue
        x2a = start[1] if a < 0 else stages[a].sign * M[2]
        x2b = goal[1] if b == len(stages) else stages[b].sign * M[2]
        # const + sum alpha_j X_j^2 + sum X_i tau_i = 0
        const, alpha, unknowns = x2a - x2b, {}, []
        scale = abs(x2a) + abs(x2b)  # of the terms summed into const
        for i in range(a + 1, b):
            e = stages[i]
            if e.value:
                unknowns.append(("t", i))
                continue
            u = _control(e, M0)
            for j, s in ((i + 1, 0.5 / u), (i, -0.5 / u)):
                if X[j] is None:
                    if j not in alpha:
                        unknowns.insert(len(alpha), ("x", j))
                    alpha[j] = alpha.get(j, 0.0) + s
                else:
                    const += s * X[j] * X[j]
                    scale += abs(s) * X[j] * X[j]
        coef = {k: alpha[k[1]] if k[0] == "x" else X[k[1]] for k in unknowns}
        if len(unknowns) == 1:
            (key,) = unknowns
            if key[0] == "t":
                choices.append([{key: _const(-const / coef[key])}])
                continue
            # a junction at x1 = 0 is a double root; keep it through rounding
            sq = -const / coef[key]
            if sq < 0.0 and abs(const) > 1e-12 * scale:
                return []
            r = sqrt(max(sq, 0.0))
            choices.append([{key: _const(r)}, {key: _const(-r)}] if r
                           else [{key: _const(0.0)}])
        else:
            first, second = unknowns
            lin = [const, 0.0, coef[first]] if first[0] == "x" \
                else [const, coef[first]]
            rest = [-c / coef[second] for c in lin]
            if second[0] == "x":
                R, value = rest, _W
            else:
                value = (rest, [])
            choices.append([{first: _Z, second: value}])
    out = []
    for combo in product(*choices):
        val = dict(fixed)
        for opt in combo:
            val.update(opt)
        xs = [val[("x", j)] if x is None else _const(x)
              for j, x in enumerate(X)]
        durations = []
        for i, e in enumerate(stages):
            if e.value:
                durations.append(val[("t", i)])
            else:
                dx = _radd(xs[i + 1], _rscale(xs[i], -1.0))
                durations.append(_rscale(dx, 1.0 / _control(e, M0)))
        if _backward([p[0] for p, q in durations if len(p) == 1 and not q]):
            continue
        if goal[2] is None:  # order <= 2: every duration is a number
            out.append([horner(t[0], 0.0) for t in durations])
            continue
        # x3 += t (x2 + t (x1 / 2 + u t / 6)) and x2 += t (x1 + u t / 2),
        # with x1 the junction where the stage starts
        x2, x3 = _const(start[1]), _const(start[2] - goal[2])
        for e, x1, t in zip(stages, xs, durations):
            u = _control(e, M0)
            inner = _radd(_rscale(x1, 0.5), _rscale(t, u / 6.0))
            x3 = _radd(x3, _rmul(t, _radd(x2, _rmul(t, inner, R)), R))
            x2 = _radd(x2, _rmul(t, _radd(x1, _rscale(t, 0.5 * u)), R))
        F, G = x3
        if any(G):
            mul = kinematics.poly_mul
            zeros = _real_zeros(kinematics.poly_add(
                mul(F, F), mul(R, mul(G, G)), -1.0))
        else:
            zeros = _real_zeros(F)
        for z in zeros:
            f, g = horner(F, z), horner(G, z)
            w = sqrt(max(horner(R, z), 0.0)) if R else 0.0
            # the sign of w that cancels F, or both where F and w G are lost
            # in rounding (two touches close to x1 = 0, say)
            size = (horner([abs(c) for c in F], abs(z))
                    + w * horner([abs(c) for c in G], abs(z)))
            signs = [s for s in (1.0, -1.0) if w
                     and abs(f + s * w * g) <= 1e-6 * size]
            if not signs:
                signs = [1.0 if abs(f + w * g) <= abs(f - w * g) else -1.0]
            for s in signs:
                out.append([horner(p, z) + s * w * horner(q, z)
                            for p, q in durations])
    return out


def _roots_of(elements, x0, xf, M, n):
    """The residual closure of one signed system, and the stage times of its
    real solutions, not yet checked for sign or bounds.

    Every elimination candidate with no time below -BACKWARD_TOL
    max(1, max|t|) (``_backward``) is polished once by ``root`` (MINPACK
    hybr) on the residual, also one whose residual is already small, and the
    polish replaces it when it converged or its residual is at most
    RESIDUAL_TOL, and its times are >= -1e-9.  Otherwise the candidate is
    kept when it meets the system itself: where stages of zero length make
    the Jacobian singular, the polish can drift along the system's
    near-solutions to negative times.  A time that is zero but for rounding
    (within 1e-7 of the largest) starts the polish at zero: MINPACK's
    forward differences step each time in proportion to it, which near zero
    is lost in rounding, and by a fixed step at zero.

    The zero-time run is a start too when it meets the system (zero
    motion).  It is where the elimination fails: the 000 law's solutions
    then form a curve through it (no middle stage, the last stage undoing
    the first), and its polynomial vanishes.
    """
    fun = _law_residuals(elements, x0, xf, M, n)
    stage_count = sum(1 for e in elements if isinstance(e, Behavior))
    starts = _candidates(elements, x0, xf, M, n)
    zero = [0.0] * stage_count
    if float(np.max(np.abs(fun(zero)))) <= RESIDUAL_TOL:
        starts.append(zero)
    found = []
    for guess in starts:
        if _backward(guess):
            continue
        tiny = 1e-7 * max(abs(t) for t in guess)
        sol = root(fun, [0.0 if abs(t) <= tiny else t for t in guess],
                   method="hybr", tol=1e-12,
                   options={"maxfev": 40 * (stage_count + 1)})
        if ((sol.success or float(np.max(np.abs(sol.fun))) <= RESIDUAL_TOL)
                and not np.any(sol.x < -1e-9)):
            found.append(sol.x)
        elif float(np.max(np.abs(fun(guess)))) <= RESIDUAL_TOL:
            found.append(np.array(guess))
    return fun, found


def _solutions(elements, x0, xf, M, n):
    """Accepted solutions of one signed system: (stage times, end state)
    pairs.  A solution is accepted when its times are >= -1e-9 (then
    clipped to zero), its residual is at most RESIDUAL_TOL and every stage
    keeps the bounds."""
    fun, found = _roots_of(elements, x0, xf, M, n)
    for times in found:
        if np.any(times < -1e-9):
            continue
        times = np.clip(times, 0.0, None)
        if float(np.max(np.abs(fun(times)))) > RESIDUAL_TOL:
            continue
        end = _feasible(elements, x0, M, times)
        if end is None:
            continue
        yield times, end


def _leg_touches(leg, x0, M, n):
    """Every distinct solution of a marker leg: (leg time, touch state)."""
    found = []
    for times, end in _solutions(leg, x0, None, M, n):
        if all(float(np.max(np.abs(times - other))) > SAME_LEG_TOL
               for other, _ in found):
            found.append((times, end))
    return [(float(np.sum(times)), end) for times, end in found]


def exhaustive_tf(problem: Problem) -> OracleResult:
    """Minimum time over every real solution of every catalog law.

    Each unsigned law is tried with both terminal signs.  A plain law is one
    system.  A law with a tangent marker is split at the marker: its leg is
    solved once per call for all laws that share it, keeping every distinct
    touch, and the rest of the law is solved like a plain law from each
    touch state; its time is the leg's plus the rest's.  Every accepted
    solution competes on total time.  Only orders up to 3 are supported (the
    catalog is exact there); ``OracleError`` means that no catalog law has
    a feasible real solution.
    """
    n = problem.n
    if n > 3:
        raise OracleError("exhaustive search supports orders 1..3")
    x0, xf, M = problem.x0, problem.xf, problem.M
    # signed leg -> its (leg time, touch state) solutions; a plain law's
    # empty leg ends where it starts
    touches = {(): [(0.0, x0)]}
    best: Optional[tuple[float, str]] = None
    for law in laws.enumerate_af(n):
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
                touches[leg] = _leg_touches(leg, x0, M, n)
            for t_leg, start in touches[leg]:
                for times, _ in _solutions(rest, start, xf, M, n):
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
        u = _control(e, M0)
        if kinematics.segment_bound_check(cur, u, float(times[ti]), M, 1e-9):
            return None
        cur = kinematics.propagate(cur, u, float(times[ti]))
        ti += 1
    return cur
