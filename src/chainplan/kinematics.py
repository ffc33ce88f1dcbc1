"""Exact kinematics of chain-of-integrators under constant control.

The hot kernels of manifold interception (``propagate``, ``integral_top``
and the order-2 closed form ``plan2``) and the per-segment machinery (state
polynomials, stationary points, bound violation checks).  Callers reach the
kernels as ``kinematics.<name>`` so that a profiler can wrap them here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fabs, sqrt
from typing import Optional

# recorded by perfbench in its environment block; the kernels are pure Python
BACKEND: str = "python"


def propagate(x, u, t):
    """State after time t under constant control u. Exact up to float error.

    State k is accumulated as 0.0 + x_k + x_{k-1} t + ... + u t^k/k!, with
    the Taylor factors built as term *= t / (i + 1).  Orders up to 4 are
    unrolled, the hot order 3 tested first; they do the loop's operations in
    the loop's order, bar the exact steps x * 1.0 and 1.0 * (t / 1), so
    every order gives the loop's bits, signed zeros included.
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
    if n == 2:
        x1, x2 = x
        return (0.0 + x1 + u * t, 0.0 + x2 + x1 * t + u * (t * (t / 2)))
    if n == 1:
        return (0.0 + x[0] + u * t,)
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


def plan2(v0, p0, vf, pf, M0, M1, eps):
    """Plan the two-state problem (velocity bound M1, M1 <= 0 for unbounded).

    Returns a tuple of (control, duration) stages; empty for start == goal.
    The position is unconstrained here; callers layer position handling.
    """
    mirror = 1.0
    while True:
        if v0 >= vf:
            disp = (v0 * v0 - vf * vf) / (2.0 * M0)
        else:
            disp = (vf * vf - v0 * v0) / (2.0 * M0)
        pstar = pf - disp
        gap = p0 - pstar
        scale = max(1.0, fabs(pstar))
        if fabs(gap) <= eps * scale:
            if v0 == vf and p0 == pf:
                return ()
            u = mirror * M0 if vf >= v0 else -mirror * M0
            return ((u, fabs(vf - v0) / M0),)
        if gap > 0.0:
            v0, p0, vf, pf = -v0, -p0, -vf, -pf
            mirror = -mirror
            continue
        break
    w2 = M0 * (pf - p0) + 0.5 * (v0 * v0 + vf * vf)
    if w2 < 0.0:
        w2 = 0.0
    w = sqrt(w2)
    if M1 <= 0.0 or w <= M1:
        return ((mirror * M0, (w - v0) / M0), (-mirror * M0, (w - vf) / M0))
    t1 = (M1 - v0) / M0
    t3 = (M1 - vf) / M0
    tr = (pf - p0 - (M1 * M1 - v0 * v0) / (2.0 * M0)
          - (M1 * M1 - vf * vf) / (2.0 * M0)) / M1
    return ((mirror * M0, t1), (0.0, tr), (-mirror * M0, t3))


_FACT = [1.0]
for _i in range(1, 32):
    _FACT.append(_FACT[-1] * _i)


@dataclass(frozen=True)
class Polynomial:
    """Real univariate polynomial; ``coeffs[i]`` multiplies ``t**i``."""

    coeffs: tuple[float, ...]

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0.0:
                return i
        return 0

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) <= 1:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)


def state_polynomial(x, u: float, k: int) -> Polynomial:
    """Polynomial giving state k along a constant-control segment.

    Evaluating it at t equals propagate(x, u, t)[k-1]; degree k.
    """
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"state index {k} outside 1..{n}")
    coeffs = [0.0] * (k + 1)
    coeffs[0] = x[k - 1]
    for i in range(1, k):
        coeffs[i] = x[k - 1 - i] / _FACT[i]
    coeffs[k] = u / _FACT[k]
    return Polynomial(tuple(coeffs))


def _refine_root(p: Polynomial, lo: float, hi: float, tol: float) -> float:
    """Locate the sign change of a monotone-on-bracket polynomial by bisection."""
    flo = p(lo)
    if flo == 0.0:
        return lo
    fhi = p(hi)
    if fhi == 0.0:
        return hi
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def real_roots(p: Polynomial, interval: tuple[float, float],
               tol: float = 1e-12, dedup: float = 1e-10) -> list[float]:
    """All real roots of p on [a, b], sorted, deduplicated within ``dedup``.

    Roots are isolated by subdividing at derivative roots (recursively down
    to the linear case), then polished by bisection to ``tol``.  Raises
    ValueError for the identically zero polynomial.
    """
    a, b = interval
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if p.is_zero():
        raise ValueError("identically zero on interval")
    deg = p.degree
    # function-value tolerance for flagging a grazing (even-multiplicity) root
    span = max(1.0, abs(a), abs(b))
    fscale = sum(abs(c) * span ** i for i, c in enumerate(p.coeffs))
    feps = 1e-12 * max(1.0, fscale)
    if deg == 0:
        return []
    breakpoints = [a, b]
    if deg >= 2:
        breakpoints = sorted(set([a, b]) | set(real_roots(p.derivative(), interval, tol, dedup)))
    roots = []
    for t in breakpoints:
        if abs(p(t)) <= feps:
            roots.append(t)
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        flo, fhi = p(lo), p(hi)
        if abs(flo) <= feps or abs(fhi) <= feps:
            continue
        if (flo < 0.0) != (fhi < 0.0):
            roots.append(_refine_root(p, lo, hi, tol))
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > dedup:
            out.append(r)
    return out


@dataclass(frozen=True)
class Violation:
    """A state bound exceeded along a segment: which state, when, how much."""

    k: int
    t: float
    value: float


def segment_bound_check(x, u: float, T: float, M, eps: float = 1e-9) -> Optional[Violation]:
    """Check |xk(t)| <= Mk + eps along one constant-control segment.

    Evaluates each bounded state at the segment ends and at its interior
    stationary points (enough for polynomials); returns the first violation
    or None.
    """
    if T < 0.0:
        raise ValueError(f"segment duration must be >= 0, got {T}")
    n = len(x)
    for k in range(1, n + 1):
        bound = M[k]
        if bound is None:
            continue
        poly = state_polynomial(x, u, k)
        times = [0.0, T]
        if T > 0.0 and k >= 2:
            # stationary points of state k are the roots of state k-1
            deriv = state_polynomial(x, u, k - 1)
            if not deriv.is_zero():
                times.extend(t for t in real_roots(deriv, (0.0, T)) if 0.0 < t < T)
        times.sort()
        for t in times:
            v = poly(t)
            if abs(v) > bound + eps:
                return Violation(k, t, v)
    return None
