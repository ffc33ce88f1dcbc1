"""Shared test utilities."""

from chainplan import kinematics, planner, sampling
from chainplan.model import Behavior, Problem, Segment, Trajectory, VirtualGroup


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


def stage_trajectory(system, solved):
    """Trajectory of a solved stage system's real chain: one segment per
    behavior; virtual-group durations are solved but never traversed."""
    segments = []
    cur = system.x0
    ti = 0
    for e in system.asl.elements:
        if isinstance(e, Behavior):
            u, dur = system.controls[ti], solved.times[ti]
            segments.append(Segment(u, dur, cur))
            cur = kinematics.propagate(cur, u, dur)
            ti += 1
        elif isinstance(e, VirtualGroup):
            ti += len(e.members)
    problem = Problem(system.n, system.x0, system.xf, system.M)
    return Trajectory(tuple(segments), sum(s.duration for s in segments),
                      system.asl, problem)
