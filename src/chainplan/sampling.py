"""Random problem generation for batch evaluation and tests."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .model import Problem

if TYPE_CHECKING:  # numpy is slow to import, and the callers pass its rng
    import numpy as np


def default_bounds(n: int) -> tuple[Optional[float], ...]:
    """Benchmark bound sets: (1, 1, 1.5, 4) at order 3 and (1, 1, 1.5, 4, 20)
    at order 4; the pattern extrapolates geometrically above."""
    base = [1.0, 1.0, 1.5, 4.0, 20.0]
    if n + 1 <= len(base):
        return tuple(base[: n + 1])
    out = list(base)
    while len(out) < n + 1:
        out.append(out[-1] * 5.0)
    return tuple(out)


UNBOUNDED_RANGE = 10.0


def random_problem(n: int, M, rng: np.random.Generator,
                   margin: float = 0.95) -> Problem:
    """Draw boundary states uniformly inside the bounds (scaled by
    ``margin``); unbounded components draw from ±UNBOUNDED_RANGE."""

    def draw() -> tuple[float, ...]:
        out = []
        for k in range(1, n + 1):
            r = margin * M[k] if M[k] is not None else UNBOUNDED_RANGE
            out.append(float(rng.uniform(-r, r)))
        return tuple(out)

    return Problem(n, draw(), draw(), tuple(M))
