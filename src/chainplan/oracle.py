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
order up to 3.  The signed systems are compiled once per order and set of
unbounded states (``_catalog``, ``_System``): what a system takes from its
law is derived once, and each search applies the bounds and the boundary
states with the float operations of a system built from scratch.  Each
system is solved by elimination, in closed form or through the real roots
of one univariate polynomial of degree at most 6.  The polynomials of every
system of a batch are rooted together: their companion matrices, built as
``np.roots`` builds them, are stacked into one ``np.linalg.eigvals`` call
per size, which gives each root ``np.roots``' bits.  Each root with no
stage time below -BACKWARD_TOL max(1, max|t|) is polished once by a library
root finder, MINPACK's hybrid Powell method (``scipy.optimize.root``,
method "hybr"), on the system's own residual.  A root with such a time runs
a stage backward and is dropped unpolished, and so is every root of a
closed-form choice whose fixed durations already do, before its polynomial
is built.  So "no catalog law admits a feasible solution" is a statement
about the catalog, not about a search's starts.  The residual is one view
of the system's walk (``_law_walk``), which also gives each stage's start
and the end state: a root is accepted on one walk, its residual, the bound
check of its stages and its end state, and past ``_catalog`` no code reads
a law's elements.

A law with a tangent marker is solved in two parts, split at the touch: the
leg (the stages up to the marker, pinned by its conditions) and the rest
(the stages after it, from the touch state to the goal).  Every law that
starts with the same signed leg shares its solutions, so each leg is solved
once per search.  The legs and the plain laws are solved in one batch, the
rests from the legs' touches in a second.

The planner's ``solver.solve_times`` calls the same MINPACK routine, but on
residuals it assembles itself, from seeded starts.  At orders up to 3, only
problems with no bounded interior state reach the planner's solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


class _System:
    """One signed system of order 1 to 3, compiled: a plain law, a marker
    leg (its stages up to the marker, pinned by its conditions) or a rest
    (the stages after it).  It holds what the walk and the elimination
    take from the law, and nothing from the bounds' values or the boundary
    states: each call applies those with the same float operations.

    - ``elements``: the signed law elements it was compiled from, which
      name it; no walk or elimination reads them;
    - ``signs``: each stage's control sign, 0 on a ride;
    - ``steps``: the walk's steps (sign, pin), see ``_law_walk``;
      a marker's sign is None, as it has no stage of its own;
    - ``touch``: the sign of a leg's marker, None for a plain law or rest;
    - ``x1``: x1 at each stage boundary: "start", "goal", the sign of a
      +-M1 ride, 0 at a +-2 cruise, or None where it is an unknown;
    - ``cuts``: the +-2 cruises, whose duration is the x3 unknown z;
    - ``pieces``: the x2 equation of each piece between the cuts, as
      (a, b, terms, alphas, unknowns): the signs of the +-M2 rides that
      bound it (None at the start or the goal), the known junctions' terms
      (stage i, +-0.5, junction j) of its constant and each unknown
      junction's terms (j, ((i, +-0.5), ...)), in ``_eliminate``'s order,
      and its unknowns, ("x", j) for a junction and ("t", i) for a cruise.
    """

    def __init__(self, elements, n):
        self.elements = elements
        stages = [e for e in elements if isinstance(e, Behavior)]
        self.signs = tuple(0 if e.value else e.sign for e in stages)
        steps = []
        for e in elements:
            if isinstance(e, Behavior):
                k = e.value
                pin = (k, e.sign, tuple(range(k - 1))) if k else None
                steps.append((0 if k else e.sign, pin))
            else:  # TangentMarker
                k = e.behavior.value
                zeros = tuple(k - 1 - j for j in range(1, e.degree))
                steps.append((None, (k, e.behavior.sign, zeros)))
        self.steps = tuple(steps)
        leg = isinstance(elements[-1], TangentMarker)
        self.touch = elements[-1].behavior.sign if leg else None
        X = ["start"] + [None] * len(stages)
        for i, e in enumerate(stages):
            if e.value:
                X[i] = X[i + 1] = e.sign if e.value == 1 else 0
        X[-1] = None if leg else "goal"
        self.x1 = tuple(X)
        self.cuts = tuple(i for i, e in enumerate(stages) if e.value == 2)
        pieces = []
        edges = [-1, *self.cuts, len(stages)]
        for a, b in zip(edges, edges[1:]):
            if n == 1 and not leg:  # no x2 equation
                continue
            terms, alphas, unknowns = [], {}, []
            for i in range(a + 1, b):
                if stages[i].value:
                    unknowns.append(("t", i))
                    continue
                for j, half in ((i + 1, 0.5), (i, -0.5)):
                    if X[j] is None:
                        if j not in alphas:
                            unknowns.insert(len(alphas), ("x", j))
                        alphas.setdefault(j, []).append((i, half))
                    else:
                        terms.append((i, half, j))
            pieces.append((None if a < 0 else stages[a].sign,
                           None if b == len(stages) else stages[b].sign,
                           tuple(terms),
                           tuple((j, tuple(p)) for j, p in alphas.items()),
                           tuple(unknowns)))
        self.pieces = tuple(pieces)


@cache
def _catalog(n, free):
    """The signed systems of the order-n catalog, for bounds that are None
    at the indices in ``free``: the signed legs, and each signed law as its
    canonical text, its leg (an index into the legs; None for a plain law)
    and its rest (the whole law when plain), in catalog order.

    Each unsigned law is taken with both terminal signs.  A law that rides
    or touches a state whose bound is None is left out.  Each signed system
    is compiled once: a marker law's rest is also a plain law."""
    legs, plans, systems = [], [], {}

    def compiled(elements):
        if elements not in systems:
            systems[elements] = _System(elements, n)
        return systems[elements]

    for law in laws.enumerate_af(n):
        for last in (1, -1):
            elements = laws.assign_signs(law, last).elements
            # the states that stages ride and markers touch must be bounded
            pinned = [e.behavior.value if isinstance(e, TangentMarker)
                      else e.value for e in elements]
            if any(k > 0 and k in free for k in pinned):
                continue
            cut = next((i + 1 for i, e in enumerate(elements)
                        if isinstance(e, TangentMarker)), 0)
            leg = None
            if cut:
                system = compiled(elements[:cut])
                if system not in legs:
                    legs.append(system)
                leg = legs.index(system)
            plans.append((laws.canonical(law), leg,
                          compiled(elements[cut:])))
    return tuple(legs), tuple(plans)


def _law_walk(system, x0, xf, M):
    """One walk of a compiled system, built directly on the chain's
    constant-control step, ``kinematics.propagate``: a closure that takes
    any sequence of stage times and returns the residuals (an array), each
    stage's (start state, control, time) and the end state.  MINPACK takes
    the residuals alone; ``_solutions`` checks a solution on all three.

    A step (sign, pin) advances one stage under the control sign M0 (None
    for a marker, which has no stage of its own), then, if its pin
    ``(k, sign, zeros)`` is not None, pins the state at index k - 1 to
    sign M_k and those at ``zeros`` to zero.  The terminal rows pin the end
    state to ``xf``; with ``xf`` None there are none, and the pins of the
    law's last marker end the system (a marker leg).  The times run as
    Python floats: numpy scalars would give the same bits, only slower.
    """
    M0 = M[0]
    steps = [(None if s is None else s * M0 if s else 0.0,
              None if pin is None else (pin[0] - 1, pin[1] * M[pin[0]],
                                        pin[2]))
             for s, pin in system.steps]
    start = tuple(x0)
    goal = () if xf is None else tuple(xf)

    def walk(times):
        times = np.asarray(times, dtype=float).tolist()
        propagate = kinematics.propagate
        res, stages = [], []
        x = start
        ti = 0
        for u, pin in steps:
            if u is not None:
                stages.append((x, u, times[ti]))
                x = propagate(x, u, times[ti])
                ti += 1
            if pin is not None:
                k, target, zeros = pin
                res.append(x[k] - target)
                for j in zeros:
                    res.append(x[j])
        res += [a - b for a, b in zip(x, goal)]
        return np.array(res), stages, x

    return walk


def _zero_motion(system, x0, xf, M) -> bool:
    """Whether the zero-time run meets the system: with every stage time
    zero the chain stays at x0, so its residual is each pin taken at x0 and
    x0 - xf, and each must be at most RESIDUAL_TOL."""
    res = [a - b for a, b in zip(x0, () if xf is None else xf)]
    for _, pin in system.steps:
        if pin is not None:
            k, sign, zeros = pin
            res.append(x0[k - 1] - sign * M[k])
            res += [x0[j] for j in zeros]
    return all(abs(r) <= RESIDUAL_TOL for r in res)


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
# P(z) + w Q(z), and a product is reduced by w^2 = R.  A quantity that holds
# neither z nor w is a number c, and computes as ([c], []) would, bit for
# bit, without the lists.

def _radd(x, y):
    if not isinstance(x, tuple):
        if not isinstance(y, tuple):
            return x + y
        p, q = y  # poly_add([x], p) and poly_add([], q)
        return ([x + p[0]] + [0.0 + c for c in p[1:]] if p else [x],
                [0.0 + c for c in q])
    if not isinstance(y, tuple):
        p, q = x  # poly_add(p, [y]) and poly_add(q, [])
        return [p[0] + y] + p[1:] if p else [0.0 + y], list(q)
    add = kinematics.poly_add
    return add(x[0], y[0]), add(x[1], y[1]) if x[1] or y[1] else []


def _rscale(x, c):
    if not isinstance(x, tuple):
        return c * x
    return [c * a for a in x[0]], [c * a for a in x[1]] if x[1] else []


def _rmul(x, y, R):
    if not isinstance(x, tuple):
        if not isinstance(y, tuple):
            return 0.0 + x * y if x != 0.0 else 0.0
        p, q = y  # poly_mul([x], p) and poly_mul([x], q)
        if x == 0.0:
            return [0.0] * len(p), [0.0] * len(q)
        return [0.0 + x * c for c in p], [0.0 + x * c for c in q]
    if not isinstance(y, tuple):
        y = ([y], [])
    add, mul = kinematics.poly_add, kinematics.poly_mul
    (p, q), (r, s) = x, y
    if not q and not s:
        return mul(p, r), []
    return add(mul(p, r), mul(mul(q, s), R)), add(mul(p, s), mul(q, r))


def _at(x, z):
    """(P(z), Q(z)) of a quantity."""
    if not isinstance(x, tuple):
        return 0.0 * z + x, 0.0
    return kinematics.horner(x[0], z), kinematics.horner(x[1], z)


_Z = ([0.0, 1.0], [])
_W = ([], [1.0])


def _companion_roots(polys):
    """``np.roots`` of each coefficient list in ``polys`` (item i multiplying
    z^i, the last one nonzero), bit for bit: the eigenvalues of companion
    matrices built as ``np.roots`` builds them, then a root at zero for each
    zero low coefficient.  The matrices of one size are stacked into one
    ``np.linalg.eigvals`` call, which runs LAPACK on each as on one alone."""
    roots, sizes = [], {}
    for p in polys:
        low = next(k for k, c in enumerate(p) if c != 0.0)
        roots.append([0.0] * low)
        if len(p) - 1 - low:
            sizes.setdefault(len(p) - 1 - low, []).append(len(roots) - 1)
    for d, members in sizes.items():
        # each matrix's first row: the coefficients below the leading one,
        # highest first, negated and over the leading one
        first = np.array([polys[i][-2:-2 - d:-1] for i in members])
        lead = np.array([[polys[i][-1]] for i in members])
        A = np.zeros((len(members), d, d))
        A[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        A[:, 0, :] = -first / lead
        for i, z in zip(members, np.linalg.eigvals(A).tolist()):
            roots[i][:0] = z
    return roots


def _real_zeros(polys):
    """The real roots of each polynomial in ``polys``: the real part of
    every root where it nearly vanishes, so that a double root split into a
    complex pair by rounding is kept, also at zero.  "Nearly" is a backward
    error |p(x)| / (|p| |(1, x, ..., x^d)|) of at most 1e-10.  Leading
    coefficients lost to cancellation are dropped first; they only stand
    for roots far beyond any stage.  A linear polynomial is solved in closed
    form; the others, those of every system of a batch, are rooted in one
    ``_companion_roots`` call, one eigenvalue call per size."""
    trimmed = []
    for p in polys:
        p = list(p)
        big = max((abs(c) for c in p), default=0.0)
        while p and abs(p[-1]) <= 1e-12 * big:
            p.pop()
        trimmed.append(p)
    higher = [p for p in trimmed if len(p) > 2]
    roots = iter(_companion_roots(higher))
    out = []
    for p in trimmed:
        if len(p) < 2:
            out.append([])
            continue
        if len(p) == 2:
            out.append([-p[0] / p[1]])
            continue
        norm = sqrt(sum(c * c for c in p))
        keep = []
        for z in next(roots):
            x = z.real
            powers = sqrt(sum(x ** (2 * k) for k in range(len(p))))
            if abs(kinematics.horner(p, x)) <= 1e-10 * norm * powers:
                keep.append(x)
        out.append(keep)
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


def _eliminate(system, x0, xf, M, n):
    """One system's elimination up to its x3 polynomial: for each
    combination of closed-form choices that is kept, (durations, R, F, G,
    p), the stage durations in z and w, R, x3 = F + w G and the polynomial
    whose real roots pin z.  At order 1 and 2 every duration is a number
    and F, G and p are None.

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

    A combination whose fixed durations (those with no z and no w) run a
    stage backward (``_backward``) is dropped before its x3 polynomial is
    built.  The -r branch of a +-2 cruise law's one-unknown piece is such a
    choice.
    """
    M0 = M[0]
    us = [s * M0 if s else 0.0 for s in system.signs]
    start = tuple(x0) + (0.0,) * (3 - n)
    if xf is None:  # a marker leg: x2 = 0 and x3 = sigma M3 at the touch
        goal = (None, 0.0, system.touch * M[3])
    else:
        goal = tuple(xf) + (None,) * (3 - n)
    X = [None if k is None else start[0] if k == "start"
         else goal[0] if k == "goal" else k * M[1] if k else 0.0
         for k in system.x1]
    R = []
    choices = []
    for a, b, terms, alphas, unknowns in system.pieces:
        x2a = start[1] if a is None else a * M[2]
        x2b = goal[1] if b is None else b * M[2]
        # const + sum alpha_j X_j^2 + sum X_i tau_i = 0
        const = x2a - x2b
        scale = abs(x2a) + abs(x2b)  # of the terms summed into const
        for i, half, j in terms:
            s = half / us[i]
            const += s * X[j] * X[j]
            scale += abs(s) * X[j] * X[j]
        alpha = {}
        for j, parts in alphas:
            alpha[j] = 0.0
            for i, half in parts:
                alpha[j] += half / us[i]
        coef = [alpha[k] if kind == "x" else X[k] for kind, k in unknowns]
        if len(unknowns) == 1:
            if unknowns[0][0] == "t":
                choices.append([(-const / coef[0],)])
                continue
            # a junction at x1 = 0 is a double root; keep it through rounding
            sq = -const / coef[0]
            if sq < 0.0 and abs(const) > 1e-12 * scale:
                return []
            r = sqrt(max(sq, 0.0))
            choices.append([(r,), (-r,)] if r else [(0.0,)])
        else:
            lin = ([const, 0.0, coef[0]] if unknowns[0][0] == "x"
                   else [const, coef[0]])
            rest = [-c / coef[1] for c in lin]
            if unknowns[1][0] == "x":
                R, value = rest, _W
            else:
                value = (rest, [])
            choices.append([(_Z, value)])
    cruises = [None] * len(us)
    for i in system.cuts:
        cruises[i] = _Z
    out = []
    for combo in product(*choices):
        xs, ts = list(X), list(cruises)
        for piece, values in zip(system.pieces, combo):
            for (kind, k), v in zip(piece[4], values):
                if kind == "x":
                    xs[k] = v
                else:
                    ts[k] = v
        durations = [
            _rscale(_radd(xs[i + 1], _rscale(xs[i], -1.0)), 1.0 / u) if s
            else ts[i] for i, (s, u) in enumerate(zip(system.signs, us))]
        if _backward([t for t in durations if not isinstance(t, tuple)]):
            continue
        if goal[2] is None:  # order <= 2: every duration is a number
            out.append((durations, R, None, None, None))
            continue
        # x3 += t (x2 + t (x1 / 2 + u t / 6)) and x2 += t (x1 + u t / 2),
        # with x1 the junction where the stage starts
        x2, x3 = start[1], start[2] - goal[2]
        for u, x1, t in zip(us, xs, durations):
            inner = _radd(_rscale(x1, 0.5), _rscale(t, u / 6.0))
            x3 = _radd(x3, _rmul(t, _radd(x2, _rmul(t, inner, R)), R))
            x2 = _radd(x2, _rmul(t, _radd(x1, _rscale(t, 0.5 * u)), R))
        F, G = x3 if isinstance(x3, tuple) else ([x3], [])
        if any(G):
            mul = kinematics.poly_mul
            p = kinematics.poly_add(mul(F, F), mul(R, mul(G, G)), -1.0)
        else:
            p = F
        out.append((durations, R, F, G, p))
    return out


def _candidates(jobs, M, n):
    """For each job (system, x0, xf), with ``xf`` None for a marker leg, the
    stage times of every real solution of the system, by elimination
    (``_eliminate``): the starts that ``_roots`` polishes.  Every job's
    polynomials are rooted together (``_real_zeros``)."""
    eliminated = [_eliminate(system, x0, xf, M, n)
                  for system, x0, xf in jobs]
    zeros = iter(_real_zeros([c[4] for combos in eliminated for c in combos
                              if c[4] is not None]))
    horner = kinematics.horner
    out = []
    for combos in eliminated:
        found = []
        for durations, R, F, G, p in combos:
            if p is None:
                found.append([_at(t, 0.0)[0] for t in durations])
                continue
            for z in next(zeros):
                f, g = horner(F, z), horner(G, z)
                w = sqrt(max(horner(R, z), 0.0)) if R else 0.0
                # the sign of w that cancels F, or both where F and w G are
                # lost in rounding (two touches close to x1 = 0, say)
                size = (horner([abs(c) for c in F], abs(z))
                        + w * horner([abs(c) for c in G], abs(z)))
                signs = [s for s in (1.0, -1.0) if w
                         and abs(f + s * w * g) <= 1e-6 * size]
                if not signs:
                    signs = [1.0 if abs(f + w * g) <= abs(f - w * g)
                             else -1.0]
                values = [_at(t, z) for t in durations]
                for s in signs:
                    found.append([a + s * w * b for a, b in values])
        out.append(found)
    return out


def _roots(jobs, M, n):
    """For each job (system, x0, xf), the system's walk (``_law_walk``) and
    the stage times of its real solutions, not yet checked for sign or
    bounds.

    Every elimination candidate with no time below -BACKWARD_TOL
    max(1, max|t|) (``_backward``) is polished once by ``root`` (MINPACK
    hybr) on the residual, also one whose residual is already small, and the
    polish replaces it when it converged or its residual is at most
    RESIDUAL_TOL, and its times are >= -1e-9.  Otherwise the candidate is
    kept when it meets the system itself: where stages of zero length make
    the Jacobian singular, the polish can drift along the system's
    near-solutions to negative times.  A time that is zero but for rounding
    (at most 1e-7 max(1, max|t|), ``_backward``'s scale, where a double root
    leaves its zero-length stages about 1e-8 long) starts the polish at
    zero: MINPACK's forward differences step each time in proportion to it,
    which near zero is lost in rounding, and by a fixed step at zero.

    The zero-time run is a start too when it meets the system (zero
    motion, ``_zero_motion``).  It is where the elimination fails: the 000
    law's solutions then form a curve through it (no middle stage, the last
    stage undoing the first), and its polynomial vanishes.
    """
    out = []
    for (system, x0, xf), starts in zip(jobs, _candidates(jobs, M, n)):
        walk = _law_walk(system, x0, xf, M)

        def fun(times):  # the residuals, MINPACK's view of the walk
            return walk(times)[0]

        stage_count = len(system.signs)
        if _zero_motion(system, x0, xf, M):
            starts.append([0.0] * stage_count)
        found = []
        for guess in starts:
            if _backward(guess):
                continue
            tiny = 1e-7 * max(1.0, max(abs(t) for t in guess))
            sol = root(fun, [0.0 if abs(t) <= tiny else t for t in guess],
                       method="hybr", tol=1e-12,
                       options={"maxfev": 40 * (stage_count + 1)})
            if ((sol.success or float(np.max(np.abs(sol.fun))) <= RESIDUAL_TOL)
                    and not np.any(sol.x < -1e-9)):
                found.append(sol.x)
            elif float(np.max(np.abs(fun(guess)))) <= RESIDUAL_TOL:
                found.append(np.array(guess))
        out.append((walk, found))
    return out


def _solutions(walk, M, found):
    """Accepted solutions of one signed system, from its walk (``_law_walk``)
    and its roots ``found`` (``_roots``): (stage times, end state) pairs.  A
    solution is accepted when its times are >= -1e-9 (then clipped to
    zero), its residual is at most RESIDUAL_TOL and every stage keeps the
    bounds; each is walked once."""
    for times in found:
        if np.any(times < -1e-9):
            continue
        times = np.clip(times, 0.0, None)
        res, stages, end = walk(times)
        if float(np.max(np.abs(res))) > RESIDUAL_TOL:
            continue
        if any(kinematics.segment_bound_check(x, u, t, M, 1e-9)
               for x, u, t in stages):
            continue
        yield times, end


def _solve(jobs, M, n):
    """The accepted solutions of each job (system, x0, xf)."""
    return [list(_solutions(walk, M, found))
            for walk, found in _roots(jobs, M, n)]


def _leg_touches(solutions):
    """Every distinct solution of a marker leg: (leg time, touch state)."""
    found = []
    for times, end in solutions:
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
    touch state; its time is the leg's plus the rest's.  The legs and the
    plain laws are solved in one batch, the rests from the touches in a
    second.  Every accepted solution competes on total time, in catalog
    order.  Only orders up to 3 are supported (the catalog is exact there);
    ``OracleError`` means that no catalog law has a feasible real solution.
    """
    n = problem.n
    if n > 3:
        raise OracleError("exhaustive search supports orders 1..3")
    x0, xf, M = problem.x0, problem.xf, problem.M
    legs, plans = _catalog(n, tuple(k for k, m in enumerate(M) if m is None))
    first = _solve([(leg, x0, None) for leg in legs]
                   + [(rest, x0, xf) for _, leg, rest in plans if leg is None],
                   M, n)
    touches = [_leg_touches(solutions) for solutions in first[:len(legs)]]
    plain = iter(first[len(legs):])
    rests = iter(_solve([(rest, start, xf) for _, leg, rest in plans
                         if leg is not None for _, start in touches[leg]],
                        M, n))
    best: Optional[tuple[float, str]] = None
    for law, leg, _ in plans:
        # a plain law's empty leg ends where it starts
        runs = ([(0.0, next(plain))] if leg is None
                else [(t_leg, next(rests)) for t_leg, _ in touches[leg]])
        for t_leg, solutions in runs:
            for times, _ in solutions:
                tf = t_leg + float(np.sum(times))
                if best is None or tf < best[0] - 1e-15:
                    best = (tf, law)
    if best is None:
        raise OracleError("no catalog law admits a feasible solution")
    return OracleResult(best[0], best[1])
