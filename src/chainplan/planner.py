"""Recursive manifold-intercept trajectory planning.

The planner reduces an order-n problem to order n-1: it projects the start
onto the lower-order manifold of states that finish the remaining problem
exactly (the proper position p*) and classifies the start once per order,
as on, above or below that manifold, by the gap x_n - p*: one function,
``Planner._gap_of``, gives that gap to classifications and interceptions
alike.  On the manifold, the lower-order plan's controls run unchanged on
the order-n chain.  Above it, the planner plans the mirrored start, which
lies below, and negates that plan.  Below it, the planner follows one
path, the ascent and its ride: the order-m plan that
brings x_m, the highest bounded state below the top, to its cruise
x_m = M_m, then the ride along that cruise as the path's last stage.  It
hands over to the lower-order plan the moment the manifold intercepts the
path.  That moment is found in stage-local time, as a stage index, a time
into that stage and the state there: the manifold gap is evaluated at the
ascent's stage ends and the first sign change is solved inside its stage;
on the ride the gap closes linearly when x_m is x_{n-1}, and otherwise
doubling the ride time brackets the crossing.  At order 3 the gap can jump
where ``plan2`` switches to its mirrored profile; a bracket whose ends lie
on different profiles, where x1 and the goal's x1 can both be positive, is
first searched at that switch, located by bisecting the profile test
alone, and a jump found there is returned without a root search.  When the top-state bound
still activates, the planner searches tangent-marker constructions: reach
the bound with a low-order catalog law pinning the touch conditions, then
continue from the touch state.  With no bounded state below the top there
is no cruise to ascend toward: from order 3 on, such a problem is solved as
one bang-bang stage system, unclassified.

Time-optimal through order 3; near-optimal above (the virtual continuation
that encodes interception does not occur in true optima).
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple, Optional, Sequence

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


class InfeasibleProblem(PlanError):
    """No trajectory exists: a boundary state provably cannot keep a bound.

    Raised by ``Planner.plan``.  From order 3 on it is raised before any
    search runs, and the message begins with "no tangent-marker law", the
    message of the search it replaces.  At order 2 it is the closed form's
    "position bound exceeded at order 2": an order-2 plan reaches no
    farther than every trajectory must, where it stops at full control from
    x0's velocity or before xf's.
    """


HIGHER = "higher"
LOWER = "lower"
PROPER = "proper"

# the tolerance to which interception and cruise-ride crossings are solved
INTERCEPT_TOL = 1e-13
# randomized restarts of solver.solve_times per saturation-only solve, each
# a Newton polish (kinematics.root) from a seeded start; marker legs get twice
SOLVER_RESTARTS = 16
MAX_MARKER_DEPTH = 8
_P2_BOUND = ("position bound exceeded at order 2; no marker structure exists "
             "below order 3")


# Shared law elements: plans hold these rather than building their own.
_UP, _DOWN = Behavior(0, 1), Behavior(0, -1)
# plan2's laws by (stage count, first control > 0): a ramp, two opposite
# ramps, or two around the cruise at the bound the first ramp heads for
_PLAN2_ELEMENTS = {
    (1, True): (_UP,), (1, False): (_DOWN,),
    (2, True): (_UP, _DOWN), (2, False): (_DOWN, _UP),
    (3, True): (_UP, Behavior(1, 1), _DOWN),
    (3, False): (_DOWN, Behavior(1, -1), _UP),
}


@cache
def _ride(m: int) -> Behavior:
    """The cruise x_m = +M_m that an ascent rides."""
    return Behavior(m, 1)


@cache
def _negated(e):
    """A law element's negation, built once per distinct element."""
    return e.negated()


@cache
def _group(members: tuple) -> tuple:
    """The virtual group of these behaviors, simplified, as law elements
    (none where simplification drops every member)."""
    return laws.simplify(Asl((VirtualGroup(members),))).elements


class _Plan(NamedTuple):
    """Internal planning result: (control, duration) stages and the realized
    law elements.  Stages map 1:1 onto Behavior elements; groups and markers
    carry no stage.  A plan holds no start state: the controls are the same
    from any start, so whoever walks the plan passes the start in."""

    stages: tuple[tuple[float, float], ...]
    elements: tuple

    @property
    def tf(self) -> float:
        return sum(t for _, t in self.stages)


def _negate(p: _Plan) -> _Plan:
    return _Plan(tuple([(-u if u != 0.0 else 0.0, t) for u, t in p.stages]),
                 tuple([_negated(e) for e in p.elements]))


def _stage_root(gap, start, u, lo, g_lo, hi, g_hi, goal2=None):
    """(tau, state) where gap(propagate(start, u, tau)) changes sign on
    [lo, hi]; a gap that raises PlanError ends the search at the best
    iterate.

    At order 3, goal2 is plan2's goal and control bound (vf, pf, M0).  Where
    the ends lie on different plan2 branches, the gap may jump at the branch
    change instead of crossing zero, and Brent's method can only bisect a
    jump, in about 50 evaluations.  So the change is located first
    (``_branch_change``) and the gap is evaluated at the two points around
    it.  Where each keeps the sign of its end of [lo, hi], they bracket the
    sign change within INTERCEPT_TOL, and the one with the smaller |gap| is
    returned.  Otherwise ``kinematics.bracket_root`` solves [lo, hi] as if
    no check had run, so an ordinary root keeps its bits."""
    def f(t):
        try:
            return gap(kinematics.propagate(start, u, t))
        except PlanError:
            return None

    change = None if goal2 is None else \
        _branch_change(start, u, lo, hi, *goal2)
    if change is not None:
        a, b = change
        g_a, g_b = f(a), f(b)
        if g_a is not None and g_b is not None \
                and (g_a < 0.0) == (g_lo < 0.0) and (g_b < 0.0) == (g_hi < 0.0):
            tau = a if abs(g_a) <= abs(g_b) else b
            return tau, kinematics.propagate(start, u, tau)
    tau = kinematics.bracket_root(f, lo, g_lo, hi, g_hi, INTERCEPT_TOL)
    return tau, kinematics.propagate(start, u, tau)


def _branch_change(start, u, lo, hi, vf, pf, M0):
    """(a, b) around a point of the stage (start, u) where plan2 from its
    (x1, x2) to (vf, pf) switches between the mirrored branch and the
    others: a on lo's side, b on hi's, at most INTERCEPT_TOL apart (or
    adjacent floats).  None where lo and hi lie on the same side, or where
    the profiles on the two sides meet at the switch.

    At the switch, the mirrored profile is the one ramp that the others
    end in, unless x1 and vf are both positive: then it first turns x1
    down, and only there can the gap jump.  x1 is linear along the stage,
    so no switch is sought unless vf > 0 and x1 > 0 at lo or hi.  The
    branch (``kinematics.plan2_branch``) reads x1 and x2 alone, taken here
    with ``propagate``'s float operations, so a bisection step costs a few
    flops where a gap evaluation costs a ``propagate`` and a ``plan2_top``."""
    s1, s2 = start[0], start[1]
    if not (vf > 0.0 and (0.0 + s1 + u * lo > 0.0 or 0.0 + s1 + u * hi > 0.0)):
        return None
    branch = kinematics.plan2_branch

    def mirrored(t):
        return branch(0.0 + s1 + u * t, 0.0 + s2 + s1 * t + u * (t * (t / 2)),
                      vf, pf, M0) > 0

    side = mirrored(lo)
    if mirrored(hi) == side:
        return None
    while hi - lo > INTERCEPT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mirrored(mid) == side:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _concat(*parts: _Plan) -> _Plan:
    """The parts in turn.  Every part is merged (a valid law holds no two
    identical adjacent behaviors), so stages fuse only at a junction, where
    a part's first behavior repeats the last one before it."""
    stages: list = []
    elements: list = []
    for p in parts:
        fuse = bool(elements and p.elements) and isinstance(
            p.elements[0], Behavior) and elements[-1] == p.elements[0]
        if fuse:
            stages[-1] = (stages[-1][0], stages[-1][1] + p.stages[0][1])
        stages.extend(p.stages[fuse:])
        elements.extend(p.elements[fuse:])
    return _Plan(tuple(stages), tuple(elements))


class Planner:
    """Reentrant planning engine; one instance per top-level request."""

    def __init__(self, bound_eps: float = 1e-9):
        self.bound_eps = bound_eps

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def plan(self, problem: Problem) -> Trajectory:
        """Feasible trajectory from x0 to xf; raises PlanError on failure."""
        if problem.x0 == problem.xf:
            return Trajectory((), 0.0, Asl(()), problem)
        if problem.n >= 3 and problem.M[3] is not None:
            self._raise_if_infeasible(problem)
        try:
            p = self._plan(problem.n, problem.x0, problem.xf, problem.M)
        except PlanError as e:
            if problem.n != 2:
                raise
            raise InfeasibleProblem(str(e)) from e
        return self._realize(p, problem)

    def _raise_if_infeasible(self, problem: Problem) -> None:
        """Raise InfeasibleProblem when a boundary state of the problem's
        order-3 projection, (x0[:3], xf[:3], M[:4]), cannot keep |x3| <= M3.

        The first three states of a chain of any order run as an order-3
        chain under the same control and bounds, so a projection that no
        trajectory solves proves the problem infeasible.
        ``kinematics.brake_peak`` bounds the x3 peak of every trajectory
        leaving x0 and, on the reversed chain (state (x1, -x2, x3)), of every
        trajectory arriving at xf.  A trajectory may end before that brake
        stops, but then it ends in a state whose own brake peaks at least as
        high on the same side; so a peak beyond M3 proves nothing while the
        other boundary state's brake peaks as high there (less bound_eps,
        against rounding).

        Where that peer check proves nothing, the time x1 needs may: every
        trajectory lasts at least T = |xf1 - x01| / M0, and one that keeps
        |x3| <= M3 ends before the brake stops, so it ends at or beyond the
        brake's x3 at T (or at the stop, if sooner) on the brake's side,
        where the brake's x3 does not decrease.  The other boundary state's
        x3 short of that (less bound_eps) proves the problem infeasible.
        """
        M = problem.M
        lim = M[3] + self.bound_eps
        x0, xf = problem.x0, problem.xf
        reach = abs(xf[0] - x0[0]) / M[0]
        back0 = (x0[0], -x0[1], x0[2])
        backf = (xf[0], -xf[1], xf[2])
        for end, where, state, other in (
                ("start", "cannot keep", x0[:3], xf[:3]),
                ("goal", "cannot be reached keeping", backf, back0)):
            peak = kinematics.brake_peak(state, M[0], M[1])
            if abs(peak) <= lim:
                continue
            side = 1.0 if peak > 0.0 else -1.0
            peer = kinematics.brake_peak(other, M[0], M[1])
            why = f"hardest brake peaks at {peak:.6g}"
            if side * peer >= side * peak - self.bound_eps:
                passed = kinematics.brake_peak(state, M[0], M[1], reach)
                if side * other[2] >= side * passed - self.bound_eps:
                    continue
                why += (f" and passes x3 = {passed:.6g} in the {reach:.6g} s"
                        " that x1 needs")
            if problem.n > 3:
                end += " of the order-3 projection (x1, x2, x3)"
            raise InfeasibleProblem(
                f"no tangent-marker law exists: the {end} {where} "
                f"|x3| <= M3 ({why})")

    # ------------------------------------------------------------------
    # recursion
    # ------------------------------------------------------------------

    def _plan(self, n: int, x0, xf, M, depth: int = 0) -> _Plan:
        if n == 1:
            return self._plan1(x0, xf, M[0])
        if n == 2:
            return self._plan2(x0, xf, M)
        if M[1:n].count(None) == n - 1:
            # saturation only: no bounded interior state to ascend toward
            plan = self._bang(n, x0, xf, M[0])
        else:
            plan = self._plan_free(n, x0, xf, M)
        if M[n] is not None:
            sides = self._violated_sides(n, x0, plan, M)
            if sides:
                plan = self._marker_search(n, x0, xf, M, sides, depth)
        return plan

    def _plan1(self, x0, xf, M0: float) -> _Plan:
        delta = xf[0] - x0[0]
        if delta == 0.0:
            return _Plan((), ())
        u = M0 if delta > 0 else -M0
        return _Plan(((u, abs(delta) / M0),), (_UP if delta > 0 else _DOWN,))

    def _plan2(self, x0, xf, M) -> _Plan:
        top = kinematics.plan2_top(x0[0], x0[1], xf[0], xf[1], M[0], M[1],
                                   M[2], self.bound_eps)
        if top is None:
            raise PlanError(_P2_BOUND)
        stages = top[0]
        return _Plan(stages, _PLAN2_ELEMENTS[len(stages), stages[0][0] > 0.0]
                     if stages else ())

    def _classify(self, n: int, x0, xf, M) -> tuple[str, float]:
        """PROPER, HIGHER or LOWER for the float state x0, with its gap
        (``_gap_of``), to a tolerance scaled by M[n] or, where None, by p*."""
        gap = self._gap_of(n, xf, M)(x0)
        scale = max(1.0, abs(M[n] if M[n] is not None else x0[n - 1] - gap))
        if abs(gap) <= kinematics.EPS_PROPER * scale:
            return PROPER, gap
        return (HIGHER if gap > 0.0 else LOWER), gap

    def _plan_free(self, n: int, x0, xf, M) -> _Plan:
        """Plan order n with the top-state bound ignored."""
        kind, gap = self._classify(n, x0, xf, M)
        if kind == PROPER:
            return self._plan(n - 1, x0[:-1], xf[:-1], M[:n])
        if kind == HIGHER:
            # the mirrored start lies below the mirrored manifold by -gap
            return _negate(self._plan_lower(n, tuple([-v for v in x0]),
                                            tuple([-v for v in xf]), M, -gap))
        return self._plan_lower(n, x0, xf, M, gap)

    def _plan_lower(self, n: int, x0, xf, M, gap: float) -> _Plan:
        """Plan order n from x0, which lies below the manifold by the
        classified gap (< 0): ascend toward x_m's cruise, for the highest
        bounded state x_m below the top, ride it, and hand over to the
        lower-order plan where the manifold intercepts that path.

        The path is the order-m plan to the cruise state, whose controls run
        unchanged on the order-n chain, less the zero-length ramps it ends
        in (their sign can break the law's sign chain before the ride, and
        they move nothing); its last stage is the ride, unbounded until the
        hand-over cuts it.  The behaviors that the cut skips join the
        lower-order plan's virtual group."""
        m = max([k for k in range(1, n) if M[k] is not None])
        ascent = self._plan(m, x0[:m], (0.0,) * (m - 1) + (M[m],),
                            M[:m + 1])
        stages, elements = list(ascent.stages), list(ascent.elements)
        while stages and stages[-1][1] == 0.0 \
                and isinstance(elements[-1], Behavior):
            stages.pop()
            elements.pop()
        stages.append((0.0, math.inf))
        elements.append(_ride(m))
        j, tau, state = self._hand_over(n, x0, stages, gap, xf, M)
        cut = [i for i, e in enumerate(elements)
               if isinstance(e, Behavior)][j] + 1
        head = _Plan(tuple(stages[:j]) + ((stages[j][0], tau),),
                     tuple(elements[:cut]))
        cont = self._plan(n - 1, state[: n - 1], xf[:-1], M[:n])
        members = tuple([e for e in elements[cut:] if isinstance(e, Behavior)])
        if not (members and cont.elements):
            return _concat(head, cont)
        return _concat(head, _Plan((), _group(members)), cont)

    # ---------------- interception ----------------

    def _gap_of(self, n: int, xf, M):
        """The gap x_n - p* as a function of the order-n state, raising
        PlanError where the lower-order plan fails: the hook of every
        classification and gap evaluation.  p* (x_n's goal less x_{n-1}'s
        integral along the order-(n-1) plan) is computed here only: at
        order 3 by one ``plan2_top`` call, above along the planned stages."""
        if n != 3:
            def gap(state):
                cur = state[: n - 1]
                total = 0.0
                for u, t in self._plan(n - 1, cur, xf[: n - 1], M[:n]).stages:
                    total += kinematics.integral_top(cur, u, t)
                    cur = kinematics.propagate(cur, u, t)
                return state[n - 1] - (xf[n - 1] - total)

            return gap
        vf, pf, top, M0, M1, M2 = xf[0], xf[1], xf[2], M[0], M[1], M[2]
        bound_eps = self.bound_eps

        def gap(state):
            found = kinematics.plan2_top(state[0], state[1], vf, pf, M0, M1,
                                         M2, bound_eps)
            if found is None:
                raise PlanError(_P2_BOUND)
            return state[2] - (top - found[1])

        return gap

    def _hand_over(self, n: int, x0, stages, g, xf, M):
        """Where the manifold intercepts the path from x0, whose gap is
        g < 0: (j, tau, state), the crossing tau into stage j.  The path's
        last stage is the cruise ride.

        Evaluates the gap at each stage end before the ride (a zero-length
        stage ends where it starts and is skipped); the first sign change is
        solved inside the stage that produced it, from that stage's start
        state.  A stage end where the lower-order plan fails starts a new
        bracket.  On the ride the gap closes linearly when the cruise state
        is x_{n-1}; otherwise the ride time doubles until the gap changes sign.
        At order 3 ``_stage_root`` first looks for a jump of the gap at a
        change of plan2's branch, on stage and ride brackets alike.
        """
        gap = self._gap_of(n, xf, M)
        goal2 = (xf[0], xf[1], M[0]) if n == 3 else None
        cur = x0
        for j, (u, dur) in enumerate(stages[:-1]):
            if dur <= 0.0:
                continue
            end = kinematics.propagate(cur, u, dur)
            try:
                g_end = gap(end)
            except PlanError:
                g_end = None
            if g_end == 0.0:
                return j, dur, end
            if g is not None and g_end is not None \
                    and (g < 0.0) != (g_end < 0.0):
                return (j,) + _stage_root(gap, cur, u, 0.0, g, dur, g_end,
                                          goal2)
            cur, g = end, g_end
        j = len(stages) - 1
        if g is None:
            # no lower-order plan there; fail with its error
            g = gap(cur)
        if g > 0.0:
            raise PlanError("ascent prefix overshot the manifold")
        if M[n - 1] is not None:
            # the sub-state is frozen on the cruise; the gap closes linearly
            tau = -g / M[n - 1]
            return j, tau, kinematics.propagate(cur, 0.0, tau)
        lo, hi = 0.0, 1.0
        for _ in range(120):
            g_hi = gap(kinematics.propagate(cur, 0.0, hi))
            if g_hi == 0.0 or (g < 0.0) != (g_hi < 0.0):
                break
            lo, g = hi, g_hi
            hi *= 2.0
        else:
            raise PlanError("cruise ride never reaches the manifold")
        return (j,) + _stage_root(gap, cur, 0.0, lo, g, hi, g_hi, goal2)

    # ---------------- saturation-only systems ----------------

    def _bang(self, n: int, x0, xf, M0: float) -> _Plan:
        M_free = (M0,) + (None,) * n
        base = Asl((Behavior(0),) * n)
        best: Optional[_Plan] = None
        attempted = []
        for last in (1, -1):
            signed = laws.assign_signs(base, last)
            attempted.append(signed.text())
            system = solver.assemble(signed, x0, xf, M_free)
            sol = solver.solve_times(system, max_restarts=SOLVER_RESTARTS)
            if sol is None:
                continue
            p = _Plan(system.stages(sol.times), signed.elements)
            if best is None or p.tf < best.tf:
                best = p
        if best is None:
            raise PlanError("saturation-only system did not converge", attempted)
        return best

    # ---------------- tangent markers ----------------

    def _violated_sides(self, n: int, x0, p: _Plan, M) -> list[int]:
        lim = M[n] + self.bound_eps
        lo_hit = hi_hit = False
        cur = x0
        for u, dur in p.stages:
            lo, hi = kinematics.segment_range(cur, u, dur, n)
            if hi > lim:
                hi_hit = True
            if lo < -lim:
                lo_hit = True
            cur = kinematics.propagate(cur, u, dur)
        sides = []
        if hi_hit:
            sides.append(1)
        if lo_hit:
            sides.append(-1)
        return sides

    def _marker_search(self, n: int, x0, xf, M, sides, depth: int) -> _Plan:
        if depth >= MAX_MARKER_DEPTH:
            raise PlanError("tangent-marker recursion exceeded depth "
                            f"{MAX_MARKER_DEPTH}")
        best: Optional[_Plan] = None
        attempted: list[str] = []
        for d in range(2, 2 * ((n - 1) // 2) + 1, 2):
            try:
                catalog = laws.enumerate_af(d)
            except laws.LawEnumerationError:
                break  # no catalog of this order or above can be built
            for law in catalog:
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
                    first = cont.elements[0] if cont.elements else None
                    if first is None or not isinstance(first, Behavior) \
                            or first.value != 0:
                        join = _Plan(((sigma * M[0], 0.0),),
                                     (marker, _UP if sigma > 0 else _DOWN))
                    else:
                        join = _Plan((), (marker,))
                    candidate = _concat(leg_plan, join, cont)
                    if best is None or candidate.tf < best.tf:
                        best = candidate
        if best is None:
            raise PlanError(
                f"no tangent-marker law reaches x{n} = +/-M{n} feasibly",
                attempted)
        return best

    def _marker_leg(self, n, x0, M, signed_law, sigma, d):
        """Reach the touch state through a catalog law: the top state on its
        bound with d-1 vanishing lower states.

        d = 2 legs take their candidate durations from the exact solve
        (``_touch_times``), shortest first, each passed through
        ``solver.accepted``; deeper legs are solved by
        ``solver.solve_times``.  A genuine touch must curve back inward, so
        the first state below the pinned ones has to oppose the touched
        side; the first accepted leg that is tangent and keeps every bound
        is the leg.
        """
        conditions = [(n, sigma * M[n])]
        conditions.extend((n - j, 0.0) for j in range(1, d))
        try:
            system = solver.assemble(signed_law, x0, tuple([0.0] * n), M,
                                     terminal=tuple(conditions))
        except solver.AssembleError:
            return None

        def tangent(xs) -> bool:
            return sigma * xs[-1][n - 1 - d] < 0.0

        if d == 2:
            sols = (solver.accepted(system, times) for times in sorted(
                self._touch_times(x0, M, system.controls, sigma * M[n]),
                key=sum))
        else:
            sols = [solver.solve_times(
                system, max_restarts=2 * SOLVER_RESTARTS,
                accept=lambda sol: tangent((system.x0,) + sol.states))]
        for sol in sols:
            if sol is None:
                continue
            xs = (system.x0,) + sol.states
            stages = system.stages(sol.times)
            # the leg must respect every bound, including the one it touches
            if not tangent(xs) or any(
                    kinematics.segment_bound_check(x, u, dur, M, self.bound_eps)
                    for x, (u, dur) in zip(xs, stages)):
                continue
            touch = list(xs[-1])
            for k, value in conditions:
                touch[k - 1] = value
            return _Plan(stages, signed_law.elements), tuple(touch)
        return None

    def _touch_times(self, x0, M, controls, top):
        """Duration tuples that may solve a d = 2 leg, law 00 or 010, from
        ``kinematics.touch_roots`` on the box of durations that keep the
        bounds (within bound_eps).  010's first ramp is fixed by its ride
        x1 = +/-M1; its ride and last ramp are the two free durations."""
        M0 = M[0]
        lim1 = M[1] + self.bound_eps if M[1] is not None else None
        ramp_hi = 2.0 * lim1 / M0 if lim1 is not None else None
        if len(controls) == 2:
            ua, ub = controls
            a_hi = (lim1 + abs(x0[0])) / M0 if lim1 is not None else None
            return kinematics.touch_roots(x0, ua, ub, top, a_hi, ramp_hi)
        u1, ride, ub = controls
        t1 = (math.copysign(M[1], u1) - x0[0]) / u1
        t1 = t1 if t1 > 0.0 else 0.0
        y = kinematics.propagate(x0, u1, t1)
        ride_hi = 2.0 * (M[2] + self.bound_eps) / M[1] \
            if M[2] is not None else None
        return [(t1, a, b) for a, b in kinematics.touch_roots(
            y, ride, ub, top, ride_hi, ramp_hi)]

    # ---------------- realization ----------------

    def _realize(self, p: _Plan, problem: Problem) -> Trajectory:
        """The plan as a trajectory, verified; raises PlanError otherwise."""
        try:
            traj = self._to_trajectory(p, problem)
        except AslError as e:
            # a splice can break the law's sign chain; that is a planner
            # failure, not malformed input
            raise PlanError(f"planned law is invalid: {e}") from e
        failure = solver.verify(traj, problem.M, self.bound_eps)
        if failure is not None:
            raise PlanError(f"planned trajectory failed verification: {failure}")
        return traj

    def _to_trajectory(self, p: _Plan, problem: Problem) -> Trajectory:
        segments = []
        cur = problem.x0
        for u, dur in p.stages:
            segments.append(Segment(u, dur, cur))
            cur = kinematics.propagate(cur, u, dur)
        return Trajectory(tuple(segments), p.tf, Asl(tuple(p.elements)),
                          problem)


# ----------------------------------------------------------------------
# module-level operations (fresh planner per call; reentrant)
# ----------------------------------------------------------------------

def plan(problem: Problem) -> Trajectory:
    return Planner().plan(problem)


def plan_unconstrained(n: int, x0, xf, M0: float) -> Trajectory:
    """Pure saturation plan: ``plan`` with every state bound removed."""
    return plan(Problem(n, x0, xf, (M0,) + (None,) * n))

