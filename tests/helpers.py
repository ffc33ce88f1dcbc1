"""Shared test utilities."""

import numpy as np

from chainplan import kinematics, planner, sampling
from chainplan.model import (
    Asl,
    Behavior,
    Problem,
    Segment,
    Trajectory,
    VirtualGroup,
)


def dimension(asl: Asl) -> int:
    """Degrees of freedom carried by a law.

    Each plain behavior contributes 1 minus its value, each virtual-group
    member does the same, and a tangent marker removes its degree.
    """
    total = 0
    for e in asl.elements:
        if isinstance(e, Behavior):
            total += 1 - e.value
        elif isinstance(e, VirtualGroup):
            total += sum(1 - m.value for m in e.members)
        else:
            total -= e.degree
    return total


def draw_feasible(n, M, rng, margin=0.8):
    """Rejection-sample a dynamically feasible problem and return it with its
    plan.  Draws whose boundary states cannot live with the position corridor
    are rejected: at order 3 the planner proves it with its hard-brake
    certificate (``InfeasibleProblem``).  Any other PlanError is redrawn
    too, so a planner failure can still pass for an infeasible draw."""
    while True:
        prob = sampling.random_problem(n, M, rng, margin)
        try:
            return prob, planner.plan(prob)
        except planner.PlanError:
            continue


def near_touch_draws(count):
    """Perturbed copies of the order-3 touch profile, where the free plan
    grazes x3 = +/-M3 and a tangent-marker leg has to reach the touch: the
    first ``count`` draws of ``default_rng(43)`` at width w = 0.003, each
    mirrored where the draw's coin says."""
    rng = np.random.default_rng(43)
    w = 0.003
    M = sampling.default_bounds(3)
    out = []
    for _ in range(count):
        s = rng.choice((-1.0, 1.0))
        x0 = (1.0 + w * rng.uniform(-0.5, 0.0),
              -0.375 + w * rng.uniform(-0.5, 0.5),
              3.999 - w * rng.uniform(0.0, 0.3))
        xf = (w * rng.uniform(-0.3, 0.3), w * rng.uniform(-0.3, 0.3),
              4.0 - w * rng.uniform(0.0, 0.3))
        out.append(Problem(3, tuple(s * v for v in x0),
                           tuple(s * v for v in xf), M))
    return out


def stage_trajectory(system, solved):
    """Trajectory of a solved stage system's real chain: one segment per
    behavior; virtual-group durations are solved but never traversed."""
    segments = []
    cur = system.x0
    for u, dur in system.stages(solved.times):
        segments.append(Segment(u, dur, cur))
        cur = kinematics.propagate(cur, u, dur)
    problem = Problem(system.n, system.x0, system.xf, system.M)
    return Trajectory(tuple(segments), sum(s.duration for s in segments),
                      system.asl, problem)


def piecewise(pieces, n=1):
    """An order-n trajectory from rest through (control, duration) pieces,
    under M0 = 1 with no state bound."""
    segments, x = [], (0.0,) * n
    for u, dur in pieces:
        segments.append(Segment(u, dur, x))
        x = kinematics.propagate(x, u, dur)
    return Trajectory(tuple(segments), sum(d for _, d in pieces), Asl(()),
                      Problem(n, (0.0,) * n, x, (1.0,) + (None,) * n))
