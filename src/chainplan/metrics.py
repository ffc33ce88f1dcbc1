"""Trajectory quality metrics: terminal error, saturation-law deviation,
control total variation, success classification, and ``score``, which
reports them together."""

from __future__ import annotations

from math import sqrt
from typing import Sequence

from . import solver
from .model import Problem, Trajectory


def sample_control(trajectory: Trajectory, intervals: int) -> tuple[float, ...]:
    """The control on the uniform grid t_k = (k / intervals) t_f for
    k = 0..intervals (right-continuous at switching instants)."""
    t_f = trajectory.t_f
    return tuple(trajectory.control_at(t_f * k / intervals)
                 for k in range(intervals + 1))


def terminal_error(x_solved_f, xf, M) -> float:
    """Normalized root-sum-square miss of the terminal state.

    Components with a finite bound normalize by it; unbounded components
    normalize by max(1, |target|)."""
    total = 0.0
    for k in range(1, len(xf) + 1):
        scale = M[k] if M[k] is not None else max(1.0, abs(xf[k - 1]))
        total += ((xf[k - 1] - x_solved_f[k - 1]) / scale) ** 2
    return sqrt(total)


def em_mse(trajectory: Trajectory) -> float:
    """Normalized RMS distance of the control from the saturation law,
    exact on the piecewise-constant control.

    0 exactly when u(t) stays in {-M0, 0, +M0}; 1 exactly when
    |u(t)| = M0/2 throughout.
    """
    M0 = trajectory.problem.M[0]
    segments = trajectory.segments
    t_f = sum(s.duration for s in segments)
    if t_f <= 0.0:
        return 0.0
    acc = sum(min(s.u * s.u, (abs(s.u) - M0) ** 2) * s.duration
              for s in segments)
    return sqrt(4.0 * acc / (M0 * M0 * t_f))


def tv_total_variation(samples: Sequence[float], M0: float) -> float:
    """Normalized total variation of control samples on a uniform grid,
    in [0, 1] while |u| <= M0."""
    if len(samples) < 2:
        raise ValueError("need at least two control samples")
    n = len(samples) - 1
    acc = sum(abs(samples[k] - samples[k - 1]) for k in range(1, n + 1))
    return acc / (2.0 * n * M0)


def is_success(trajectory: Trajectory, problem: Problem,
               eps_feas: float = 1e-9) -> bool:
    """Feasible within eps and terminal error at most 0.1."""
    if solver.verify(trajectory, problem.M, eps_feas) is not None:
        return False
    return terminal_error(trajectory.end_state, problem.xf, problem.M) <= 0.1


def score(trajectory: Trajectory, samples: int = 1000,
          eps_feas: float = 1e-9) -> dict:
    """The trajectory scored against its own problem: t_f, terminal error
    E_s, saturation-law deviation E_m, total variation T_v of the control
    on ``samples`` grid intervals, and success."""
    problem = trajectory.problem
    return {
        "t_f": trajectory.t_f,
        "E_s": terminal_error(trajectory.end_state, problem.xf, problem.M),
        "E_m": em_mse(trajectory),
        "T_v": tv_total_variation(sample_control(trajectory, samples),
                                  problem.M[0]),
        "success": is_success(trajectory, problem, eps_feas),
    }
