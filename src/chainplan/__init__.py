"""chainplan: trajectory planning for chain-of-integrators systems.

Plans time-optimal (order <= 3) and near-time-optimal (order >= 4)
trajectories under input saturation and full state constraints, for
arbitrary initial and terminal states, by recursive manifold interception.
"""

from .model import (
    Asl,
    AslError,
    Behavior,
    InfeasibleError,
    ParseError,
    Problem,
    Segment,
    TangentMarker,
    Trajectory,
    VirtualGroup,
    asl_parse,
    asl_to_string,
)
from .planner import InfeasibleProblem, PlanError, plan, plan_unconstrained

__version__ = "0.1.0"

__all__ = [
    "Asl",
    "AslError",
    "Behavior",
    "InfeasibleError",
    "InfeasibleProblem",
    "ParseError",
    "PlanError",
    "Problem",
    "Segment",
    "TangentMarker",
    "Trajectory",
    "VirtualGroup",
    "asl_parse",
    "asl_to_string",
    "plan",
    "plan_unconstrained",
]
