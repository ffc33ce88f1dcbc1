"""Recursive manifold-intercept trajectory planning.

The planner reduces an order-n problem to order n-1: it projects the start
onto the lower-order manifold of states that finish the remaining problem
exactly (the proper position), mirrors when above, and otherwise ascends
toward the extreme cruise state of the highest bounded state, handing over
to the lower-order plan the moment the running state is intercepted by the
manifold.  When the top-state bound still activates, the planner searches
tangent-marker constructions: reach the bound with a low-order catalog law
pinning the touch conditions, then continue from the touch state.

Time-optimal through order 3; near-optimal above (the virtual continuation
that encodes interception does not occur in true optima).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kinematics, laws, solver
from .model import (
    Asl,
    AslError,
    Behavior,
    Problem,
    Segment,
    TangentMarker,
    Trajectory,
    VirtualGroup,
)


class PlanError(RuntimeError):
    """Planning failed; ``attempted`` lists candidate laws that were tried."""

    def __init__(self, message: str, attempted: Sequence[str] = ()):
        if attempted:
            message = f"{message} (attempted laws: {', '.join(attempted)})"
        super().__init__(message)
        self.attempted = tuple(attempted)


HIGHER = "higher"
LOWER = "lower"
PROPER = "proper"


@dataclass(frozen=True)
class Classification:
    """Position of a start state relative to the lower-order manifold."""

    kind: str
    p_star: float


@dataclass(frozen=True)
class _Plan:
    """Internal planning result: start state, (control, duration) stages,
    and the realized law elements.  Stages map 1:1 onto Behavior elements;
    groups and markers carry no stage."""

    x0: tuple[float, ...]
    stages: tuple[tuple[float, float], ...]
    elements: tuple
    tf: float


def _end_state(p: _Plan) -> tuple[float, ...]:
    cur = p.x0
    for u, t in p.stages:
        cur = kinematics.propagate(cur, u, t)
    return cur


def _integral_top(p: _Plan) -> float:
    total = 0.0
    cur = p.x0
    for u, t in p.stages:
        total += kinematics.integral_top(cur, u, t)
        cur = kinematics.propagate(cur, u, t)
    return total


def _negate(p: _Plan) -> _Plan:
    return _Plan(
        tuple(-v for v in p.x0),
        tuple((-u if u != 0.0 else 0.0, t) for u, t in p.stages),
        tuple(e.negated() for e in p.elements),
        p.tf,
    )


def _lift(p: _Plan, xn: float) -> _Plan:
    return _Plan(p.x0 + (xn,), p.stages, p.elements, p.tf)


def _merge_elements(elements, stages):
    """Fuse adjacent identical behaviors (same value and sign) and their
    stages; needed where plans are spliced."""
    out_e: list = []
    out_s: list = []
    si = 0
    for e in elements:
        if isinstance(e, Behavior):
            s = stages[si]
            si += 1
            if out_e and isinstance(out_e[-1], Behavior) \
                    and out_e[-1].value == e.value and out_e[-1].sign == e.sign:
                prev = out_s[-1]
                out_s[-1] = (prev[0], prev[1] + s[1])
                continue
            out_e.append(e)
            out_s.append(s)
        else:
            out_e.append(e)
    return tuple(out_e), tuple(out_s)


def _concat(a: _Plan, b: _Plan, extra_elements=(), extra_stages=()) -> _Plan:
    elements = a.elements + tuple(extra_elements) + b.elements
    stages = a.stages + tuple(extra_stages) + b.stages
    elements, stages = _merge_elements(elements, stages)
    tf = sum(t for _, t in stages)
    return _Plan(a.x0, stages, elements, tf)


class Planner:
    """Reentrant planning engine; one instance per top-level request."""

    def __init__(self, eps_proper: float = 1e-9, bound_eps: float = 1e-9,
                 intercept_grid: int = 64, intercept_tol: float = 1e-11,
                 solver_seed: int = 0, solver_restarts: int = 8,
                 full_scan_max_order: int = 3, max_marker_depth: int = 8):
        self.eps_proper = eps_proper
        self.bound_eps = bound_eps
        self.intercept_grid = intercept_grid
        self.intercept_tol = intercept_tol
        self.solver_seed = solver_seed
        self.solver_restarts = solver_restarts
        self.full_scan_max_order = full_scan_max_order
        self.max_marker_depth = max_marker_depth

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def plan(self, problem: Problem) -> Trajectory:
        """Feasible trajectory from x0 to xf; raises PlanError on failure."""
        if problem.x0 == problem.xf:
            return Trajectory((), 0.0, Asl(()), problem)
        p = self._plan(problem.n, problem.x0, problem.xf, problem.M)
        traj = self._to_trajectory(p, problem)
        failure = solver.verify(traj, problem.M, self.bound_eps)
        if failure is not None:
            raise PlanError(f"planned trajectory failed verification: {failure}")
        return traj

    def plan_unconstrained(self, n: int, x0, xf, M0: float) -> Trajectory:
        """Pure saturation plan with every interior bound removed."""
        M = (float(M0),) + (None,) * n
        problem = Problem(n, tuple(x0), tuple(xf), M)
        if problem.x0 == problem.xf:
            return Trajectory((), 0.0, Asl(()), problem)
        if n == 1:
            p = self._plan1(problem.x0, problem.xf, float(M0))
        else:
            p = self._bang(n, problem.x0, problem.xf, float(M0))
        return self._to_trajectory(p, problem)

    def proper_position(self, x0, xf, M) -> float:
        """Position placing (x0_1..x0_{n-1}, .) on the lower-order manifold
        of xf: the goal position minus the top-state integral of the
        lower-order plan."""
        n = len(x0)
        if n < 2:
            raise ValueError("proper position needs order >= 2")
        return self._pstar(n, tuple(map(float, x0[:-1])),
                           tuple(map(float, xf)), tuple(M))

    def classify(self, x0, xf, M, eps_proper: Optional[float] = None) -> Classification:
        eps = self.eps_proper if eps_proper is None else eps_proper
        n = len(x0)
        p_star = self.proper_position(x0, xf, M)
        Mn = M[n] if len(M) > n else None
        scale = max(1.0, abs(Mn)) if Mn is not None else max(1.0, abs(p_star))
        gap = x0[n - 1] - p_star
        if abs(gap) <= eps * scale:
            kind = PROPER
        elif gap > 0.0:
            kind = HIGHER
        else:
            kind = LOWER
        return Classification(kind, p_star)

    def intercept_time(self, prefix: Trajectory, xf, M) -> Optional[float]:
        """Earliest time at which the prefix state meets the lower-order
        manifold of xf; None if the manifold gap never changes sign."""
        n = len(xf)
        stages = tuple((s.u, s.duration) for s in prefix.segments)
        if not stages:
            return None
        p = _Plan(prefix.segments[0].start, stages, (), prefix.t_f)
        hit = self._intercept_scan(n, p, tuple(map(float, xf)), tuple(M))
        return None if hit is None else hit[0]

    def tangent_marker_search(self, problem: Problem,
                              unconstrained: Trajectory) -> Trajectory:
        """Best marker-mediated trajectory when the top-state bound is hit."""
        n = problem.n
        base = _Plan(problem.x0,
                     tuple((s.u, s.duration) for s in unconstrained.segments),
                     tuple(unconstrained.asl.elements), unconstrained.t_f)
        sides = self._violated_sides(n, base, problem.M)
        if not sides:
            raise PlanError("top-state bound is not active; no marker needed")
        p = self._marker_search(n, problem.x0, problem.xf, problem.M, sides, 0)
        return self._to_trajectory(p, problem)

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------

    def _plan(self, n: int, x0, xf, M, depth: int = 0) -> _Plan:
        x0 = tuple(map(float, x0))
        xf = tuple(map(float, xf))
        if n == 1:
            return self._plan1(x0, xf, M[0])
        if n == 2:
            return self._plan2(x0, xf, M)
        plan = self._plan_free(n, x0, xf, M)
        Mn = M[n] if len(M) > n else None
        if Mn is not None:
            sides = self._violated_sides(n, plan, M)
            if sides:
                plan = self._marker_search(n, x0, xf, M, sides, depth)
        return plan

    def _plan1(self, x0, xf, M0: float) -> _Plan:
        delta = xf[0] - x0[0]
        if delta == 0.0:
            return _Plan(x0, (), (), 0.0)
        u = M0 if delta > 0 else -M0
        t = abs(delta) / M0
        return _Plan(x0, ((u, t),), (Behavior(0, 1 if u > 0 else -1),), t)

    def _plan2(self, x0, xf, M) -> _Plan:
        M0 = M[0]
        M1 = M[1] if M[1] is not None else -1.0
        stages = kinematics.plan2(x0[0], x0[1], xf[0], xf[1], M0, M1,
                                  self.eps_proper)
        stages = tuple((u, max(0.0, t)) for u, t in stages)
        elements = []
        cur = x0
        for u, t in stages:
            if u > 0.0:
                elements.append(Behavior(0, 1))
            elif u < 0.0:
                elements.append(Behavior(0, -1))
            else:
                elements.append(Behavior(1, 1 if cur[0] > 0 else -1))
            cur = kinematics.propagate(cur, u, t)
        p = _Plan(x0, stages, tuple(elements), sum(t for _, t in stages))
        M2 = M[2] if len(M) > 2 else None
        if M2 is not None:
            self._check_p2_bound(p, M2)
        return p

    def _check_p2_bound(self, p: _Plan, M2: float) -> None:
        # position extrema sit where the velocity state crosses zero
        cur = p.x0
        lim = M2 + self.bound_eps
        for u, t in p.stages:
            if abs(cur[1]) > lim:
                raise PlanError("position bound exceeded at order 2; no "
                                "marker structure exists below order 3")
            if u != 0.0:
                ts = -cur[0] / u
                if 0.0 < ts < t and abs(kinematics.propagate(cur, u, ts)[1]) > lim:
                    raise PlanError("position bound exceeded at order 2; no "
                                    "marker structure exists below order 3")
            cur = kinematics.propagate(cur, u, t)
        if abs(cur[1]) > lim:
            raise PlanError("position bound exceeded at order 2; no marker "
                            "structure exists below order 3")

    def _pstar(self, n: int, sub_state, xf, M) -> float:
        sub = self._plan(n - 1, sub_state, xf[: n - 1], M[:n])
        return xf[n - 1] - _integral_top(sub)

    def _plan_free(self, n: int, x0, xf, M) -> _Plan:
        """Plan order n with the top-state bound ignored."""
        sub = self._plan(n - 1, x0[:-1], xf[:-1], M[:n])
        p_star = xf[n - 1] - _integral_top(sub)
        gap = x0[n - 1] - p_star
        Mn = M[n] if len(M) > n else None
        scale = max(1.0, abs(Mn)) if Mn is not None else max(1.0, abs(p_star))
        if abs(gap) <= self.eps_proper * scale:
            return _lift(sub, x0[n - 1])
        if gap > 0.0:
            mirrored = self._plan_free(n, tuple(-v for v in x0),
                                       tuple(-v for v in xf), M)
            return _negate(mirrored)
        # below the manifold: ascend toward the highest bounded cruise
        if all(M[k] is None for k in range(1, n)):
            return self._bang(n, x0, xf, M[0])
        m = max(k for k in range(1, n) if M[k] is not None)
        target = tuple(M[m] if k == m else 0.0 for k in range(1, n))
        p1 = self._plan(n - 1, x0[:-1], target, M[:n])
        p1_lifted = _lift(p1, x0[n - 1])
        hit = self._intercept_scan(n, p1_lifted, xf, M)
        if hit is not None:
            return self._splice_intercept(n, p1_lifted, p1, hit[0], xf, M, m)
        return self._ride_and_return(n, p1_lifted, xf, M, m)

    # ---------------- interception ----------------

    def _gap_at(self, n: int, state, xf, M) -> float:
        return state[n - 1] - self._pstar(n, state[: n - 1], xf, M)

    def _intercept_scan(self, n: int, prefix: _Plan, xf, M):
        """First manifold crossing along the prefix: (time, state) or None.

        Scans segment boundaries and a refinement grid, then bisects.  For
        orders above ``full_scan_max_order`` a boundary pass runs first and
        only its bracket is grid-refined, falling back to the full scan
        when no boundary sign change exists.
        """
        grid = self.intercept_grid
        if n <= self.full_scan_max_order:
            return self._scan_over(n, prefix, xf, M, grid)
        hit = self._scan_over(n, prefix, xf, M, 1, refine=grid)
        if hit is not None:
            return hit
        return self._scan_over(n, prefix, xf, M, grid)

    def _scan_over(self, n, prefix: _Plan, xf, M, grid: int, refine: int = 0):
        g_prev = None
        t_prev = 0.0
        t0 = 0.0
        cur = prefix.x0
        for u, dur in prefix.stages:
            samples = [(0.0, cur)] if t0 == 0.0 and g_prev is None else []
            if dur > 0.0:
                for i in range(1, grid + 1):
                    tau = dur * i / grid
                    samples.append((tau, kinematics.propagate(cur, u, tau)))
            for tau, state in samples:
                try:
                    g = self._gap_at(n, state, xf, M)
                except PlanError:
                    g_prev = None
                    continue
                t_abs = t0 + tau
                if g == 0.0:
                    return t_abs, state
                if g_prev is not None and (g_prev < 0.0) != (g < 0.0):
                    if refine:
                        sub = self._refine_bracket(n, prefix, xf, M,
                                                   t_prev, g_prev, t_abs, g, refine)
                        if sub is not None:
                            t_prev, g_prev, t_abs, g = sub
                    return self._bisect(n, prefix, xf, M, t_prev, g_prev, t_abs, g)
                g_prev, t_prev = g, t_abs
            t0 += dur
            cur = kinematics.propagate(cur, u, dur)
        return None

    def _refine_bracket(self, n, prefix, xf, M, lo, g_lo, hi, g_hi, grid):
        step = (hi - lo) / grid
        t, g_t = lo, g_lo
        for i in range(1, grid + 1):
            t_next = lo + i * step
            try:
                g_next = self._gap_at(n, self._state_at(prefix, t_next), xf, M)
            except PlanError:
                return None
            if g_next == 0.0 or (g_t < 0.0) != (g_next < 0.0):
                return t, g_t, t_next, g_next
            t, g_t = t_next, g_next
        return None

    def _state_at(self, prefix: _Plan, t: float):
        cur = prefix.x0
        for u, dur in prefix.stages:
            if t <= dur:
                return kinematics.propagate(cur, u, t)
            t -= dur
            cur = kinematics.propagate(cur, u, dur)
        return cur

    def _bisect(self, n, prefix, xf, M, lo, g_lo, hi, g_hi):
        for _ in range(200):
            if hi - lo <= self.intercept_tol:
                break
            mid = 0.5 * (lo + hi)
            try:
                g_mid = self._gap_at(n, self._state_at(prefix, mid), xf, M)
            except PlanError:
                break
            if g_mid == 0.0:
                lo = hi = mid
                break
            if (g_lo < 0.0) != (g_mid < 0.0):
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        t2 = 0.5 * (lo + hi)
        return t2, self._state_at(prefix, t2)

    # ---------------- composition ----------------

    def _splice_intercept(self, n, prefix_lifted: _Plan, p1: _Plan, t2, xf, M, m) -> _Plan:
        stage_elem = [i for i, e in enumerate(p1.elements)
                      if isinstance(e, Behavior)]
        elapsed = 0.0
        cut = max(0, len(prefix_lifted.stages) - 1)
        local = prefix_lifted.stages[-1][1] if prefix_lifted.stages else 0.0
        for j, (u, dur) in enumerate(prefix_lifted.stages):
            if t2 <= elapsed + dur or j == len(prefix_lifted.stages) - 1:
                cut = j
                local = min(max(t2 - elapsed, 0.0), dur)
                break
            elapsed += dur
        state2 = self._state_at(prefix_lifted, t2)
        cont = self._plan(n - 1, state2[: n - 1], xf[:-1], M[:n])
        cont_l = _lift(cont, state2[n - 1])
        head_stages = prefix_lifted.stages[:cut] \
            + ((prefix_lifted.stages[cut][0], local),)
        head_elems = prefix_lifted.elements[: stage_elem[cut] + 1]
        head = _Plan(prefix_lifted.x0, head_stages, head_elems,
                     sum(t for _, t in head_stages))
        members = [e for e in p1.elements[stage_elem[cut] + 1:]
                   if isinstance(e, Behavior)]
        members.append(Behavior(m, 1))
        group = laws.simplify(Asl((VirtualGroup(tuple(members)),))).elements
        if not cont_l.elements:
            return _concat(head, cont_l)
        return _concat(head, cont_l, extra_elements=group)

    def _ride_and_return(self, n, p1_lifted: _Plan, xf, M, m) -> _Plan:
        end = _end_state(p1_lifted)
        g0 = self._gap_at(n, end, xf, M)
        if g0 > 0.0:
            raise PlanError("ascent prefix overshot the manifold")
        if m == n - 1:
            # the sub-state is frozen on the cruise; the gap closes linearly
            t_ride = -g0 / M[m]
            ride_end = kinematics.propagate(end, 0.0, t_ride)
        else:
            t_ride, ride_end = self._ride_root(n, end, xf, M)
        cont = self._plan(n - 1, ride_end[: n - 1], xf[:-1], M[:n])
        cont_l = _lift(cont, ride_end[n - 1])
        head = _Plan(p1_lifted.x0, p1_lifted.stages + ((0.0, t_ride),),
                     p1_lifted.elements + (Behavior(m, 1),),
                     p1_lifted.tf + t_ride)
        return _concat(head, cont_l)

    def _ride_root(self, n, start, xf, M):
        def g_of(t):
            return self._gap_at(n, kinematics.propagate(start, 0.0, t), xf, M)

        lo, g_lo = 0.0, self._gap_at(n, start, xf, M)
        hi = 1.0
        for _ in range(120):
            g_hi = g_of(hi)
            if g_hi == 0.0 or (g_lo < 0.0) != (g_hi < 0.0):
                break
            lo, g_lo = hi, g_hi
            hi *= 2.0
        else:
            raise PlanError("cruise ride never reaches the manifold")
        for _ in range(200):
            if hi - lo <= self.intercept_tol:
                break
            mid = 0.5 * (lo + hi)
            g_mid = g_of(mid)
            if g_mid == 0.0:
                lo = hi = mid
                break
            if (g_lo < 0.0) != (g_mid < 0.0):
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        t = 0.5 * (lo + hi)
        return t, kinematics.propagate(start, 0.0, t)

    # ---------------- saturation-only systems ----------------

    def _bang(self, n: int, x0, xf, M0: float) -> _Plan:
        M_free = (M0,) + (None,) * n
        base = Asl(tuple(Behavior(0) for _ in range(n)))
        best: Optional[_Plan] = None
        attempted = []
        for last in (1, -1):
            signed = laws.assign_signs(base, last)
            attempted.append(signed.text())
            system = solver.assemble(signed, x0, xf, M_free)
            sol = solver.solve_times(system, max_restarts=self.solver_restarts,
                                     seed=self.solver_seed)
            if sol is None:
                continue
            p = _Plan(tuple(x0), tuple(zip(system.controls, sol.times)),
                      signed.elements, sum(sol.times))
            if best is None or p.tf < best.tf:
                best = p
        if best is None:
            raise PlanError("saturation-only system did not converge", attempted)
        return best

    # ---------------- tangent markers ----------------

    def _violated_sides(self, n: int, p: _Plan, M) -> list[int]:
        lim = M[n] + self.bound_eps
        lo_hit = hi_hit = False
        cur = p.x0
        for u, dur in p.stages:
            poly = kinematics.state_polynomial(cur, u, n)
            ts = [0.0, dur]
            if dur > 0.0 and n >= 2:
                deriv = kinematics.state_polynomial(cur, u, n - 1)
                if not deriv.is_zero():
                    ts.extend(t for t in kinematics.real_roots(deriv, (0.0, dur))
                              if 0.0 < t < dur)
            for t in ts:
                v = poly(t)
                if v > lim:
                    hi_hit = True
                elif v < -lim:
                    lo_hit = True
            cur = kinematics.propagate(cur, u, dur)
        sides = []
        if hi_hit:
            sides.append(1)
        if lo_hit:
            sides.append(-1)
        return sides

    def _marker_search(self, n: int, x0, xf, M, sides, depth: int) -> _Plan:
        if depth >= self.max_marker_depth:
            raise PlanError("tangent-marker recursion exceeded depth "
                            f"{self.max_marker_depth}")
        best: Optional[_Plan] = None
        best_key = None
        attempted: list[str] = []
        for d in range(2, 2 * ((n - 1) // 2) + 1, 2):
            for law in laws.enumerate_af(d):
                for sigma in sides:
                    signed = laws.assign_signs(law, sigma)
                    attempted.append(
                        f"{signed.text()} -> ({'+' if sigma > 0 else '-'}{n},{d})")
                    leg = self._marker_leg(n, x0, M, signed, sigma, d)
                    if leg is None:
                        continue
                    leg_plan, touch = leg
                    try:
                        cont = self._plan(n, touch, xf, M, depth + 1)
                    except PlanError:
                        continue
                    marker = TangentMarker(Behavior(n, sigma), d)
                    extra: tuple = (marker,)
                    pad_stage: tuple = ()
                    first = cont.elements[0] if cont.elements else None
                    if first is None or not isinstance(first, Behavior) \
                            or first.value != 0:
                        extra = (marker, Behavior(0, sigma))
                        pad_stage = ((sigma * M[0], 0.0),)
                    try:
                        candidate = _concat(leg_plan, cont,
                                            extra_elements=extra,
                                            extra_stages=pad_stage)
                    except AslError:
                        continue
                    key = (candidate.tf, laws.canonical(Asl(candidate.elements)))
                    if best is None or candidate.tf < best_key[0] - 1e-12 \
                            or (candidate.tf < best_key[0] + 1e-12
                                and key[1] < best_key[1]):
                        best, best_key = candidate, key
        if best is None:
            raise PlanError(
                f"no tangent-marker law reaches x{n} = +/-M{n} feasibly",
                attempted)
        return best

    def _marker_leg(self, n, x0, M, signed_law, sigma, d):
        """Reach the touch state through a catalog law: the top state on its
        bound with d-1 vanishing lower states.

        A genuine touch must curve back inward, so the first state below the
        pinned ones has to oppose the touched side; roots crossing the bound
        are rejected and further seeds tried.
        """
        conditions = [(n, sigma * M[n])]
        conditions.extend((n - j, 0.0) for j in range(1, d))
        try:
            system = solver.assemble(signed_law, x0, tuple([0.0] * n), M,
                                     terminal=tuple(conditions))
        except solver.AssembleError:
            return None

        def tangent(sol: solver.Solved) -> bool:
            end = sol.states[-1] if sol.states else x0
            return sigma * end[n - 1 - d] < 0.0

        # touch systems have few unknowns but several nearby roots (touch vs
        # crossing); a deterministic grid multistart separates their basins
        T = system.num_unknowns
        seeds = None
        if T <= 3:
            tau = max(solver._seed_scale(system) * T, 1e-3)
            ticks = (0.05, 0.3, 1.0, 2.5, 6.0)
            seeds = [tuple(tau * w for w in combo)
                     for combo in itertools.product(ticks, repeat=T)]
        sol = solver.solve_times(system, seeds=seeds,
                                 max_restarts=2 * self.solver_restarts,
                                 seed=self.solver_seed, accept=tangent)
        if sol is None:
            return None
        p = _Plan(tuple(x0), tuple(zip(system.controls, sol.times)),
                  signed_law.elements, sum(sol.times))
        # the leg must respect every bound, including the one it touches
        cur = p.x0
        for u, dur in p.stages:
            if kinematics.segment_bound_check(cur, u, dur, M, self.bound_eps):
                return None
            cur = kinematics.propagate(cur, u, dur)
        touch = list(cur)
        touch[n - 1] = sigma * M[n]
        for j in range(1, d):
            touch[n - 1 - j] = 0.0
        return p, tuple(touch)

    # ---------------- realization ----------------

    def _to_trajectory(self, p: _Plan, problem: Problem) -> Trajectory:
        segments = []
        cur = p.x0
        for u, dur in p.stages:
            segments.append(Segment(u, dur, cur))
            cur = kinematics.propagate(cur, u, dur)
        return Trajectory(tuple(segments), sum(s.duration for s in segments),
                          Asl(tuple(p.elements)), problem)


# ----------------------------------------------------------------------
# module-level operations (fresh planner per call; reentrant)
# ----------------------------------------------------------------------

def plan(problem: Problem, **kwargs) -> Trajectory:
    return Planner(**kwargs).plan(problem)


def plan_unconstrained(n: int, x0, xf, M0: float, **kwargs) -> Trajectory:
    return Planner(**kwargs).plan_unconstrained(n, x0, xf, M0)


def proper_position(x0, xf, M, **kwargs) -> float:
    return Planner(**kwargs).proper_position(x0, xf, M)


def classify(x0, xf, M, eps_proper: float = 1e-9, **kwargs) -> Classification:
    return Planner(**kwargs).classify(x0, xf, M, eps_proper)


def intercept_time(prefix: Trajectory, xf, M, **kwargs) -> Optional[float]:
    return Planner(**kwargs).intercept_time(prefix, xf, M)


def tangent_marker_search(problem: Problem, unconstrained: Trajectory,
                          **kwargs) -> Trajectory:
    return Planner(**kwargs).tangent_marker_search(problem, unconstrained)
