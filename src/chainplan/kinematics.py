"""Exact kinematics of chain-of-integrators under constant control.

The hot kernels of manifold interception (``propagate``, ``integral_top``,
the order-2 closed form ``plan2``, its bound-checked, integrated form
``plan2_top`` and ``plan2_branch``, the test that picks its profile), the
per-segment machinery (state polynomials, each a plain
coefficient sequence whose item i multiplies t**i, which ``horner``
evaluates and ``poly_add`` and ``poly_mul`` combine; a state's samples at a
segment's ends and stationary points, which are found in closed form while
the derivative is at most cubic; their least and largest value,
``segment_range``, whose scan of states 1-3 is unrolled into closed forms,
and on which the bound checks decide without building the samples; bound
violation checks), ``bracket_root``, the one scalar root solver (it polishes
polynomial roots and solves the manifold interception), ``touch_roots``,
the exact two-duration solve of degree-2 tangent-marker legs, and the one
Newton polish of stage systems, which the planner's stage solve and the
oracle share: ``stage_columns``, the column rule of a walk's exact
Jacobian, and ``root``, Newton's method with least-squares steps on lists
of floats, whose step alone imports numpy (LAPACK's least-squares solve),
on its first call.  Callers reach the kernels as ``kinematics.<name>`` so
that a profiler can wrap them here.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from math import copysign, fabs, frexp, inf, isfinite, ldexp, sqrt
from typing import NamedTuple, Optional

# recorded by perfbench in its environment block; the kernels are pure Python
BACKEND: str = "python"

_EPS = sys.float_info.epsilon
# a start within EPS_PROPER (relative to max(1, bound or |p*|)) of the proper
# position counts as on the manifold (``plan2``, ``Planner._classify``)
EPS_PROPER = 1e-9


def propagate(x, u, t):
    """State after time t under constant control u. Exact up to float error.

    State k is accumulated as 0.0 + x_k + x_{k-1} t + ... + u t^k/k!, with
    the Taylor factors built as term *= t / (i + 1).  Orders 3 and 4 are
    unrolled, the hot order 3 tested first; they do the loop's operations in
    the loop's order, bar the exact steps x * 1.0 and 1.0 * (t / 1), so
    they give the loop's bits, signed zeros included.
    """
    n = len(x)
    if n == 3:
        x1, x2, x3 = x
        t2 = t * (t / 2)
        t3 = t2 * (t / 3)
        return (0.0 + x1 + u * t,
                0.0 + x2 + x1 * t + u * t2,
                0.0 + x3 + x2 * t + x1 * t2 + u * t3)
    if n == 4:
        x1, x2, x3, x4 = x
        t2 = t * (t / 2)
        t3 = t2 * (t / 3)
        t4 = t3 * (t / 4)
        return (0.0 + x1 + u * t,
                0.0 + x2 + x1 * t + u * t2,
                0.0 + x3 + x2 * t + x1 * t2 + u * t3,
                0.0 + x4 + x3 * t + x2 * t2 + x1 * t3 + u * t4)
    out = []
    for k in range(1, n + 1):
        acc = 0.0
        term = 1.0
        for i in range(k):
            acc += x[k - 1 - i] * term
            term *= t / (i + 1)
        acc += u * term
        out.append(acc)
    return tuple(out)


def integral_top(x, u, t):
    """Time integral of the highest state over [0, t] under constant u."""
    n = len(x)
    acc = 0.0
    term = t
    for i in range(1, n + 1):
        acc += x[n - i] * term
        term *= t / (i + 1)
    acc += u * term
    return acc


def stage_columns(cols, u, t, x):
    """The Jacobian columns of a chain's state after one more stage (u, t),
    which ends at x, by the stage times: the columns ``cols`` of the state
    before the stage, each carried through it, then the stage's own.

    The column of a stage's time is the chain's derivative at the stage's
    end, (u, x1, ..., x_{n-1}).  The chain is linear in its state, so a
    later stage carries a column as it carries a state under zero control,
    ``propagate(col, 0.0, t)``."""
    return [propagate(c, 0.0, t) for c in cols] + [(u,) + x[:-1]]


def plan2_branch(v0, p0, vf, pf, M0):
    """``plan2``'s branch for the start (v0, p0): 1 above the manifold of
    starts that one ramp takes to (vf, pf) (the mirrored profile), -1 below
    it, 0 on it, within EPS_PROPER relative to max(1, |p*|).  It reads the
    velocity and position only, so a caller can follow it along a stage for
    a few flops a point."""
    if v0 >= vf:
        disp = (v0 * v0 - vf * vf) / (2.0 * M0)
    else:
        disp = (vf * vf - v0 * v0) / (2.0 * M0)
    pstar = pf - disp
    gap = p0 - pstar
    scale = fabs(pstar)
    if fabs(gap) <= EPS_PROPER * (scale if scale > 1.0 else 1.0):
        return 0
    return 1 if gap > 0.0 else -1


def plan2(v0, p0, vf, pf, M0, M1):
    """Plan the two-state problem under |u| <= M0 and velocity bound M1
    (None: unbounded).

    Returns a tuple of (control, duration) stages; empty for start == goal.
    The position is unconstrained here; callers layer position handling.
    The profile is chosen by ``plan2_branch``: one ramp on the manifold,
    else two ramps (around the cruise |v| = M1 where the peak passes it),
    mirrored above.
    """
    branch = plan2_branch(v0, p0, vf, pf, M0)
    if branch == 0:
        if v0 == vf and p0 == pf:
            return ()
        return ((M0 if vf >= v0 else -M0, fabs(vf - v0) / M0),)
    # a start above the manifold plans the mirror, whose disp, pstar and gap
    # (those of plan2_branch) are their exact negatives: it is off its
    # manifold and below it
    mirror = 1.0
    if branch > 0:
        v0, p0, vf, pf = -v0, -p0, -vf, -pf
        mirror = -1.0
    w2 = M0 * (pf - p0) + 0.5 * (v0 * v0 + vf * vf)
    if w2 < 0.0:
        w2 = 0.0
    w = sqrt(w2)
    if M1 is None or w <= M1:
        return ((mirror * M0, (w - v0) / M0), (-mirror * M0, (w - vf) / M0))
    t1 = (M1 - v0) / M0
    t3 = (M1 - vf) / M0
    tr = (pf - p0 - (M1 * M1 - v0 * v0) / (2.0 * M0)
          - (M1 * M1 - vf * vf) / (2.0 * M0)) / M1
    return ((mirror * M0, t1), (0.0, tr), (-mirror * M0, t3))


def plan2_top(v0, p0, vf, pf, M0, M1, M2, bound_eps):
    """Order-2 plan with its position bound and top-state integral.

    Returns ``(stages, integral)``: ``plan2``'s stages with durations
    clipped at 0, and the time integral of the position over them.  Returns
    None when the position leaves |p| <= M2 + bound_eps (M2 None: unbounded);
    its extrema sit at stage ends and where the velocity crosses zero.  One
    pass does the check, the integral and the stepping, with the float
    operations of the order-2 ``integral_top`` and ``propagate`` in their
    order, so the results carry their bits.
    """
    bounded = M2 is not None
    if bounded:
        lim = M2 + bound_eps
    stages = plan2(v0, p0, vf, pf, M0, M1)
    clip = False
    total = 0.0
    v, p = v0, p0
    for u, t in stages:
        if not t > 0.0:
            t = 0.0
            clip = True
        if bounded:
            if fabs(p) > lim:
                return None
            if u != 0.0:
                ts = -v / u
                if 0.0 < ts < t and fabs(0.0 + p + v * ts + u * (ts * (ts / 2))) > lim:
                    return None
        t2 = t * (t / 2)
        total += 0.0 + p * t + v * t2 + u * (t2 * (t / 3))
        v, p = 0.0 + v + u * t, 0.0 + p + v * t + u * t2
    if bounded and fabs(p) > lim:
        return None
    if clip:
        stages = tuple([(u, t if t > 0.0 else 0.0) for u, t in stages])
    return stages, total


def brake_peak(x, M0, M1, until=inf):
    """Signed peak of x3 under the hardest brake from the order-3 state x,
    or its x3 at time ``until`` when the brake has not stopped by then.

    Let s be the sign of x2, or of x1 when x2 is 0 (a state with both 0 is
    at rest: its peak is x3).  In the s-frame (a, v, p) = s * (x1, x2, x3)
    the brake ramps a down at -M0 until v reaches 0 or a reaches -M1 (never
    when M1 is None), then rides a = -M1 until v reaches 0; the value
    returned is s times p at that stop, the brake's extreme x3.  Until the
    stop v >= 0, so the brake's p does not decrease.

    Why it bounds every trajectory: an admissible x1 falls no faster than
    M0 and never below -M1, so until the brake's x2 reaches 0 every
    admissible x1 is at least the brake's x1, every x2 at least its x2 and
    every x3 at least its x3.  A trajectory from x that lasts that long
    therefore reaches at least the brake's peak (the bound on x2, which the
    brake ignores, only removes trajectories).  One that ends sooner ends
    in a state at least the brake's state at that time, componentwise in
    the s-frame, and the brake from such a state peaks at least as high.
    """
    x1, x2, x3 = x
    if x2 != 0.0:
        s = 1.0 if x2 > 0.0 else -1.0
    elif x1 != 0.0:
        s = 1.0 if x1 > 0.0 else -1.0
    else:
        return x3
    a, v, p = s * x1, s * x2, s * x3
    t = (a + sqrt(a * a + 2.0 * M0 * v)) / M0
    if M1 is not None and t > (a + M1) / M0 <= until:  # rides by until
        t = (a + M1) / M0
        v1 = v + a * t - M0 * t * t / 2.0
        p1 = p + v * t + a * t * t / 2.0 - M0 * t * t * t / 6.0
        r = until - t
        if r < v1 / M1:  # still riding
            return s * (p1 + v1 * r - M1 * r * r / 2.0)
        return s * (p1 + v1 * v1 / (2.0 * M1))
    t = min(t, until)
    return s * (p + v * t + a * t * t / 2.0 - M0 * t * t * t / 6.0)


_FACT = [1.0]
for _i in range(1, 32):
    _FACT.append(_FACT[-1] * _i)


def horner(coeffs, t: float) -> float:
    """The polynomial with coefficient sequence coeffs at t."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _degree(coeffs) -> int:
    """Index of the last nonzero coefficient; 0 when there is none."""
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0.0:
        d -= 1
    return d


def state_polynomial(x, u: float, k: int) -> tuple[float, ...]:
    """Coefficient sequence of state k along a constant-control segment.

    ``horner`` of it at t equals propagate(x, u, t)[k-1]; degree k.
    """
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"state index {k} outside 1..{n}")
    coeffs = [0.0] * (k + 1)
    coeffs[0] = x[k - 1]
    for i in range(1, k):
        coeffs[i] = x[k - 1 - i] / _FACT[i]
    coeffs[k] = u / _FACT[k]
    return tuple(coeffs)


# Brent steps of bracket_root before it only bisects, well above the few
# dozen that a planner root takes, and its evaluation cap: those plus 2,100
# bisections
_BRENT_EVALS = 100
_ROOT_EVALS = _BRENT_EVALS + 2100


def bracket_root(f, lo: float, f_lo: float, hi: float, f_hi: float,
                 tol: float) -> float:
    """A point within tol of a sign change of f on [lo, hi], where f(lo) =
    f_lo and f(hi) = f_hi differ in sign.

    Brent's method (zeroin; Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): an inverse-quadratic or secant step when it
    shrinks the bracket fast enough, a bisection step otherwise, always
    keeping a sign change between the best iterate b and the other bracket
    end c.  It stops once |c - b| / 2 <= 2 eps |b| + tol / 2 (the relative
    term keeps large t from spinning at a tight tol) and returns b.  An
    exact zero is returned at once; an f that returns None ends the search
    at the best iterate so far.

    Brent's method alone can take thousands of steps to that stop at
    tol = 0 (t^3 on [-1, 1e308] takes 3,337), so after _BRENT_EVALS
    evaluations every step bisects.  Each bisection halves the bracket,
    whose width starts below 2^1025 and stops the search below 2^-1073, so
    any bracket of finite width reaches the stop within _ROOT_EVALS
    evaluations.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    for k in range(_ROOT_EVALS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if k < _BRENT_EVALS and abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else (tol1 if xm > 0.0 else -tol1)
        fb = f(b)
        if fb is None:
            return a
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


# the polish takes at most POLISH_STEPS Newton steps, and stops at the first
# point whose step is at most POLISH_XTOL max(1, max|x|) (``root``)
POLISH_STEPS = 30
POLISH_XTOL = 1e-12
# a point whose residuals are all at most POLISH_FTOL meets its system: from
# there, a step that does not halve the largest residual ends the polish
POLISH_FTOL = 1e-10
# the polish's step takes the singular values of its Jacobian J below
# SINGULAR_TOL times the largest as zero (``_newton_step``)
SINGULAR_TOL = 1e-13


class Polish(NamedTuple):
    """The point a polish (``root``) ends at as a list of floats, its
    residuals, and whether it converged."""

    x: list
    fun: list
    success: bool


def _newton_step(jac, res):
    """The step d with J d = r, for J given as rows: ``np.linalg.lstsq``'s
    least-squares step of least norm, with the singular values below
    SINGULAR_TOL times the largest taken as zero.  One rule serves a square
    J (Newton), a singular one and one with more rows than columns
    (Gauss-Newton).

    J is singular at a solution with stages of zero length, and rounding
    leaves its smallest singular value there at about 1e-15 rather than
    zero: a step through that value would run along the system's curve of
    solutions, to negative times, where the least-squares step stays put."""
    import numpy as np
    return np.linalg.lstsq(jac, res, rcond=SINGULAR_TOL)[0].tolist()


def root(fun, x0) -> Polish:
    """Newton's method from ``x0``, each step ``_newton_step``'s
    least-squares step, which is Gauss-Newton's where there are more
    residuals than unknowns (Nocedal & Wright, *Numerical Optimization*,
    2006, ch. 11): ``fun(x, jacobian)`` gives the residuals and, where
    ``jacobian`` is true, their Jacobian as rows.

    It succeeds at the first step of at most POLISH_XTOL max(1, max|x|),
    and returns the point that step reaches.  Otherwise it ends without
    success: at a point whose residuals are not finite, which it returns;
    after POLISH_STEPS steps; or, from a point whose residual is at most
    POLISH_FTOL, at a step that does not halve the largest residual, and
    then returns the point before that step.  At a point whose residual is
    rounding alone, a step is rounding over the Jacobian's smallest
    singular value kept; where stages of zero length make that value
    small, such steps wander along the system's curve of solutions, to
    negative times, and on the oracle's planted probes of CHANGES.md the
    polish takes 1.6 to 1.8 times the steps without that stop.  Farther
    out, near a double root, a first step can raise the residual on its
    way to the root.  A step to a NaN residual does not halve it."""
    x = [float(t) for t in x0]
    res, jac = fun(x, True)
    for _ in range(POLISH_STEPS):
        if not all(isfinite(r) for r in res):
            break
        step = _newton_step(jac, res)
        size = max(map(abs, step))
        new = [t - d for t, d in zip(x, step)]
        done = size <= POLISH_XTOL * max(1.0, max(map(abs, new)))
        new_res, new_jac = fun(new, not done)
        if done:
            return Polish(new, new_res, True)
        last = max(map(abs, res))
        if last <= POLISH_FTOL and not all(abs(r) <= 0.5 * last
                                           for r in new_res):
            break
        x, res, jac = new, new_res, new_jac
    return Polish(x, res, False)


ROOT_TOL = 1e-12
ROOT_DEDUP = 1e-10


def real_roots(p, interval: tuple[float, float]) -> list[float]:
    """All real roots on [a, b] of the polynomial with coefficient sequence
    p, sorted, deduplicated within ROOT_DEDUP.

    Roots are isolated by subdividing at derivative roots (recursively down
    to the linear case): each subdivision point where |p| is within the
    zero tolerance, and each strict sign change between neighbouring
    points, polished by ``bracket_root`` to ROOT_TOL.  A sign change beside
    a point taken for a zero is solved too: p can be that flat near a
    distinct root.  Raises ValueError when every coefficient is zero.
    """
    a, b = interval
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if not any(p):
        raise ValueError("identically zero on interval")
    deg = _degree(p)
    # function-value tolerance for flagging a grazing (even-multiplicity) root
    span = max(1.0, abs(a), abs(b))
    fscale = sum(abs(c) * span ** i for i, c in enumerate(p))
    feps = 1e-12 * max(1.0, fscale)
    if deg == 0:
        return []
    breakpoints = [a, b]
    if deg >= 2:
        deriv = tuple(i * c for i, c in enumerate(p) if i > 0)
        breakpoints = sorted(set([a, b]) | set(real_roots(deriv, interval)))
    values = [horner(p, t) for t in breakpoints]
    roots = [t for t, v in zip(breakpoints, values) if abs(v) <= feps]
    for lo, f_lo, hi, f_hi in zip(breakpoints, values,
                                  breakpoints[1:], values[1:]):
        if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
            roots.append(bracket_root(partial(horner, p), lo, f_lo, hi, f_hi,
                                      ROOT_TOL))
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > ROOT_DEDUP:
            out.append(r)
    return out


def poly_mul(p: list, q: list) -> list:
    """The product of two coefficient lists; empty when either is."""
    if not p or not q:
        return []
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a != 0.0:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_add(p: list, q: list, sign: float = 1.0) -> list:
    """p + sign * q on coefficient lists."""
    out = list(p) + [0.0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] += sign * c
    return out


def _poly_det(m) -> list:
    """Determinant of a square matrix of polynomials (coefficient lists).

    Laplace expansion row by row over column subsets: the minor on the
    first r rows and the columns of a bit mask is built once, so an N x N
    matrix costs N 2^(N-1) polynomial products, and no division is made.
    """
    minors = {0: [1.0]}
    for row in m:
        nxt: dict = {}
        for mask, minor in minors.items():
            for c, entry in enumerate(row):
                bit = 1 << c
                if mask & bit or not any(entry):
                    continue
                # expanding along the last row: the sign counts the columns
                # of the minor to the right of c
                sign = -1.0 if bin(mask >> (c + 1)).count("1") % 2 else 1.0
                key = mask | bit
                nxt[key] = poly_add(nxt.get(key, [0.0]),
                                    poly_mul(entry, minor), sign)
        minors = nxt
    return minors.get((1 << len(m)) - 1, [0.0])


def _stay_time(x, u: float, lim: float) -> float:
    """The last time at which x_n, under constant u from x, is within
    |x_n| <= lim, padded by 1e-6 of itself: a stage that keeps that bound
    ends by then.  0.0 where x_n never moves."""
    p = state_polynomial(x, u, len(x))
    end = 0.0
    for side in (lim, -lim):
        q = (p[0] - side,) + p[1:]
        d = _degree(q)
        if d > 0:
            # every root lies within Fujiwara's bound of 0
            c = [abs(v / q[d]) for v in q]
            bound = 2.0 * max([c[d - i] ** (1.0 / i) for i in range(1, d)]
                              + [(0.5 * c[0]) ** (1.0 / d)])
            end = max([end] + real_roots(q, (0.0, bound)))
    return end * (1.0 + 1e-6)


def _touch_residual(x, ua, ub, top, a, b) -> float:
    z = propagate(propagate(x, ua, a), ub, b)
    return max(abs(z[-2]), abs(z[-1] - top))


def _touch_step(x, ua, ub, top, a, b):
    """One Newton step on the 2 x 2 touch system, clipped to durations
    >= 0, or None where its Jacobian is singular."""
    n = len(x)
    y = propagate(x, ua, a)
    z = propagate(y, ub, b)
    # d z / d a and d z / d b, the two stages' columns
    ja, jb = stage_columns(stage_columns((), ua, a, y), ub, b, z)
    det = ja[n - 2] * jb[n - 1] - jb[n - 2] * ja[n - 1]
    if det == 0.0:
        return None
    r1, r2 = z[n - 2], z[n - 1] - top
    na = a - (r1 * jb[n - 1] - jb[n - 2] * r2) / det
    nb = b - (ja[n - 2] * r2 - r1 * ja[n - 1]) / det
    return max(0.0, na), max(0.0, nb)


def _touch_polish(x, ua, ub, top, a, b):
    """Newton steps on the 2 x 2 touch system, each kept only where it
    lowers the residual.  At a touch on the b = 0 boundary the Jacobian is
    singular (both durations move x_n at rate x_{n-1} = 0), and such a step
    is refused rather than taken.

    From order 5 on, a resultant root can land where these guarded steps
    stall far from the touch; there up to 30 unguarded steps follow, and
    the iterate with the lowest residual is kept."""
    r = _touch_residual(x, ua, ub, top, a, b)
    for _ in range(3):
        if r == 0.0:
            break
        step = _touch_step(x, ua, ub, top, a, b)
        if step is None:
            break
        nr = _touch_residual(x, ua, ub, top, *step)
        if not nr < r:
            break
        (a, b), r = step, nr
    if len(x) >= 5 and r > 1e-8 * max(1.0, abs(top)):
        best = (r, a, b)
        for _ in range(30):
            step = _touch_step(x, ua, ub, top, a, b)
            if step is None:
                break
            a, b = step
            nr = _touch_residual(x, ua, ub, top, a, b)
            if nr < best[0]:
                best = (nr, a, b)
        _, a, b = best
    return a, b


def _touch_resultant(x, ua, ub, top, c, h) -> tuple[float, ...]:
    """Resultant in b of x_{n-1} and x_n - top after stages (ua, a) and
    (ub, b), as the coefficient sequence of a polynomial in s where
    a = c + h s."""
    n = len(x)
    xc = propagate(x, ua, c)
    # y_k(s), the states after the first stage
    y = [[v * h ** i for i, v in enumerate(state_polynomial(xc, ua, k))]
         for k in range(1, n + 1)]
    # f = x_{n-1} and g = x_n - top after the second stage, as coefficient
    # lists in b of coefficient lists in s (padded to degree n)
    f = [[v / _FACT[i] for v in y[n - 2 - i]] for i in range(n - 1)]
    f += [[ub / _FACT[n - 1]], [0.0]]
    g = [poly_add(y[n - 1], [top], -1.0)]
    g += [[v / _FACT[i] for v in y[n - 1 - i]] for i in range(1, n)]
    g += [[ub / _FACT[n]]]
    # Bezout matrix of (f, g): (f(p) g(q) - f(q) g(p)) / (p - q) in b = p, q
    bez = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = [0.0]
            for k in range(min(i, n - 1 - j) + 1):
                entry = poly_add(entry, poly_mul(f[j + k + 1], g[i - k]))
                entry = poly_add(entry, poly_mul(f[i - k], g[j + k + 1]), -1.0)
            row.append(entry)
        bez.append(row)
    res = _poly_det(bez)
    # scale by a power of two (exactly) to a largest coefficient in
    # [0.5, 1): real_roots takes values below 1e-12 of that for zeros
    shift = -frexp(max(map(abs, res)))[1]
    return tuple(ldexp(v, shift) for v in res)


def touch_roots(x, ua: float, ub: float, top: float,
                a_hi: Optional[float] = None,
                b_hi: Optional[float] = None) -> list[tuple[float, float]]:
    """Durations (a, b) of two constant-control stages from x, u = ua for a
    and then u = ub for b, that end with x_{n-1} = 0 and x_n = top: the two
    free durations of a degree-2 tangent-marker leg.  The second stage
    ramps: ub != 0.

    Both end states are polynomials in b whose coefficients are polynomials
    in a, and x_{n-1} is the b-derivative of x_n.  Their resultant in b (the
    determinant of their Bezout matrix, degree <= n(n-1) in a) vanishes at
    every a of a common root, so its real roots on [0, a_hi] are all the
    candidate a (at a touch its slope scales as b^(n-1), flat enough that a
    point taken for a zero can sit beside a distinct root; ``real_roots``
    keeps both).
    Each is back-substituted through the real roots of x_{n-1} in b on
    [0, b_hi] and polished by guarded Newton steps.  A bound given as None
    is replaced by the last time at which that stage alone keeps
    |x_n| <= |top|, which a leg that keeps the bound it touches cannot
    outlast.  No real root proves that no such leg exists in the box.

    Every common root in the box appears, to float accuracy.  A candidate
    can also come from a resultant root whose common root is complex, so
    callers check the residual.  The pairs are sorted and deduplicated.
    The system is solved in the frame where top >= 0, so a negated x, ua,
    ub and top give the same bits.
    """
    if top < 0.0:
        x = tuple(-v for v in x)
        ua, ub, top = -ua, -ub, -top
    n = len(x)
    if a_hi is None:
        a_hi = _stay_time(x, ua, top)
    # the resultant's coefficients lose roots in a region small against the
    # span they are taken on, so a box wider than 2 tau, where tau is the
    # time ub takes to move x_n from rest to |top|, is cut into [0, 2 tau]
    # and pieces that double from there; each piece is centred, a = c + h s
    # with s in [-1, 1].  From order 5 on the first piece is [0, tau / 2]:
    # on [0, 2 tau] the resultant, of degree 20 and up, can be flat to 1e-13
    # across a touch and lose it
    tau = (_FACT[n] * top / abs(ub)) ** (1.0 / n)
    first = (2.0 if n < 5 else 0.5) * tau
    cuts = [0.0, min(a_hi, first) if tau > 0.0 else a_hi]
    while cuts[-1] < a_hi:
        cuts.append(min(a_hi, 2.0 * cuts[-1]))
    out = set()
    for lo, hi in zip(cuts, cuts[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        res = _touch_resultant(x, ua, ub, top, c, h)
        if not any(res):
            continue
        for sa in real_roots(res, (-1.0, 1.0)):
            a = c + h * sa
            y = propagate(x, ua, a)
            fb = state_polynomial(y, ub, n - 1)
            if not any(fb):
                continue
            b_end = b_hi if b_hi is not None else _stay_time(y, ub, top)
            for b in real_roots(fb, (0.0, b_end)):
                out.add(_touch_polish(x, ua, ub, top, a, b))
    return sorted(out)


@dataclass(frozen=True)
class Violation:
    """A state bound exceeded along a segment: which state, when, how much."""

    k: int
    t: float
    value: float


def _quadratic_roots(c: float, b: float, a: float) -> list[float]:
    """Real roots of c + b t + a t^2, a != 0, unsorted; none when the
    discriminant is negative.  q = -(b + sign(b) sqrt(disc)) / 2 adds terms
    of one sign, so neither root c / q nor q / a suffers the cancellation of
    the textbook (-b +/- sqrt(disc)) / 2a; q = 0 only at the double root 0."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + copysign(sqrt(disc), b))
    if q == 0.0:
        return [0.0]
    return [c / q, q / a]


def _stationary_points(d, T: float) -> list[float]:
    """Times that include every sign change inside (0, T) of the polynomial
    d, the derivative of the state being scanned: unsorted, possibly with
    roots outside (0, T), which callers drop.

    Only a sign change of d is an extremum of the state: at a root of even
    multiplicity the state has an inflection and stays between its values
    on either side, so a scan that misses that root misses no extreme.  A
    linear or quadratic d is solved in closed form.  A cubic is cut at the
    closed-form roots of its derivative into monotone pieces, and each piece
    that changes sign is solved by ``bracket_root``; a cut where d is
    exactly 0 is a root (of multiplicity 3 when it is a sign change).  From
    degree 4 on, ``real_roots`` isolates the roots."""
    deg = _degree(d)
    if deg == 0:
        return []
    if deg == 1:
        return [-d[0] / d[1]]
    if deg == 2:
        return _quadratic_roots(d[0], d[1], d[2])
    if deg > 3:
        return real_roots(d, (0.0, T))
    cuts = sorted({t for t in _quadratic_roots(d[1], 2.0 * d[2], 3.0 * d[3])
                   if 0.0 < t < T})
    cuts = [0.0] + cuts + [T]
    values = [horner(d, t) for t in cuts]
    roots = [t for t, v in zip(cuts[1:-1], values[1:-1]) if v == 0.0]
    for lo, f_lo, hi, f_hi in zip(cuts, values, cuts[1:], values[1:]):
        if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
            roots.append(bracket_root(partial(horner, d), lo, f_lo, hi, f_hi,
                                      ROOT_TOL))
    return roots


def segment_samples(x, u: float, T: float, k: int) -> list[tuple[float, float]]:
    """(t, x_k(t)) at the ends of a constant-control segment of duration T
    and at its interior stationary points, in time order: where state k
    takes its extremes on the segment."""
    poly = state_polynomial(x, u, k)
    times = [0.0, T]
    if T > 0.0 and k >= 2:
        # stationary points of state k are the sign changes of state k-1
        deriv = state_polynomial(x, u, k - 1)
        times.extend(t for t in _stationary_points(deriv, T) if 0.0 < t < T)
    times.sort()
    return [(t, horner(poly, t)) for t in times]


def segment_range(x, u: float, T: float, k: int) -> tuple[float, float]:
    """The least and the largest of ``segment_samples(x, u, T, k)``'s
    values as min and max give them (the first of equal values), NaN
    skipped; (inf, -inf) where all are NaN.  States 1-3 build no list: x1
    is read at the ends, x2 also at -x1/u and x3 also at the closed-form
    roots of x2, in time order, each by ``horner``'s expression written out
    on ``state_polynomial``'s coefficients (x_k, ..., x1/(k-1)!, u/k!), so
    with the generic scan's bits, signed zeros included."""
    lo, hi = inf, -inf
    n = len(x)
    times = (T, 0.0) if T < 0.0 else (0.0, T)
    if k == 3 and n >= 3:
        x1, x2, x3 = x[0], x[1], x[2]
        if T > 0.0:
            a = u / 2.0
            if a != 0.0:
                roots = _quadratic_roots(x2, x1, a)
                roots.sort()
            else:
                roots = (-x2 / x1,) if x1 != 0.0 else ()
            for t in roots:
                if 0.0 < t < T:
                    times = times[:-1] + (t, T)
        c2, c3 = x1 / 2.0, u / 6.0
        for t in times:
            v = (((0.0 * t + c3) * t + c2) * t + x2) * t + x3
            if v < lo:
                lo = v
            if v > hi:
                hi = v
        return lo, hi
    if k == 2 and n >= 2:
        x1, x2, c2 = x[0], x[1], u / 2.0
        if T > 0.0 and u != 0.0 and 0.0 < -x1 / u < T:
            times = (0.0, -x1 / u, T)
        for t in times:
            v = ((0.0 * t + c2) * t + x1) * t + x2
            if v < lo:
                lo = v
            if v > hi:
                hi = v
        return lo, hi
    if k == 1 and n >= 1:
        for t in times:
            v = (0.0 * t + u) * t + x[0]
            if v < lo:
                lo = v
            if v > hi:
                hi = v
        return lo, hi
    values = [v for _, v in segment_samples(x, u, T, k) if v == v]
    return (min(values), max(values)) if values else (inf, -inf)


def segment_bound_check(x, u: float, T: float, M, eps: float = 1e-9) -> Optional[Violation]:
    """Check |xk(t)| <= Mk + eps along one constant-control segment.

    Decides on each bounded state's ``segment_range`` (its values at the
    ends and stationary points suffice for polynomials); returns the first
    of the generic ``segment_samples`` past the bound, or None.
    """
    if T < 0.0:
        raise ValueError(f"segment duration must be >= 0, got {T}")
    for k in range(1, len(x) + 1):
        bound = M[k]
        if bound is None:
            continue
        lim = bound + eps
        lo, hi = segment_range(x, u, T, k)
        if hi > lim or -lo > lim:
            for t, v in segment_samples(x, u, T, k):
                if abs(v) > lim:
                    return Violation(k, t, v)
    return None
