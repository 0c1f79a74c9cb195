"""Uniform time grids, piecewise-constant step functions, norms and quadrature.

The control space is the set of functions that are constant on each interval
[t_n, t_{n+1}) of a uniform partition of [0, T] (the last interval is closed
at T).  ``nodal_sample`` maps a function of time into that space by
left-endpoint sampling, because the discrete scheme only ever reads left-node
values; ``problems.discretize`` uses it for the drift coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "StepFunction",
    "TimeGrid",
    "constant_control",
    "l2_dist",
    "linf_dist",
    "nodal_sample",
    "trapezoid",
]

# Scalar function of time, e.g. a drift coefficient or an exact control.
TimeFn = Callable[[float], float]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_N = T with step dt = T/N."""

    T: float
    N: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"horizon must be finite, got T={self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one step, got N={self.N}")
        nodes = np.linspace(0.0, self.T, self.N + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.T / self.N


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function on a TimeGrid, one coefficient per interval.

    ``values[n]`` is the value on [t_n, t_{n+1}); the final interval is closed
    at T so the function is defined on all of [0, T].
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.N,):
            raise ValueError(
                f"expected {self.grid.N} interval values, got shape {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Evaluate at scalar or array t in [0, T]."""
        idx = np.searchsorted(self.grid.nodes, t, side="right") - 1
        idx = np.clip(idx, 0, self.grid.N - 1)
        return self.values[idx]


def _require_same_grid(u: StepFunction, v: StepFunction) -> None:
    if u.grid != v.grid:
        raise ValueError("step functions live on different grids")


def nodal_sample(f: TimeFn, grid: TimeGrid) -> StepFunction:
    """Step function taking the left-endpoint value f(t_n) on each interval."""
    values = np.array([float(f(t)) for t in grid.nodes[:-1]])
    return StepFunction(grid, values)


def linf_dist(u: StepFunction, v: StepFunction) -> float:
    """max_n |u_n - v_n| over the shared grid."""
    _require_same_grid(u, v)
    return float(np.max(np.abs(u.values - v.values)))


def l2_dist(u: StepFunction, v: StepFunction) -> float:
    """L2([0,T]) distance of two step functions, sqrt(dt * sum (u_n - v_n)^2)."""
    _require_same_grid(u, v)
    d = u.values - v.values
    return float(np.sqrt(u.grid.dt * np.dot(d, d)))


def trapezoid(values: np.ndarray, grid: TimeGrid) -> float:
    """Trapezoidal rule dt*(x_0/2 + x_1 + ... + x_{N-1} + x_N/2) on nodal data."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.N + 1,):
        raise ValueError(
            f"expected {grid.N + 1} nodal values, got shape {values.shape}"
        )
    inner = float(values[1:-1].sum()) if grid.N > 1 else 0.0
    return grid.dt * (0.5 * values[0] + inner + 0.5 * values[-1])


def constant_control(grid: TimeGrid, c: float) -> StepFunction:
    return StepFunction(grid, np.full(grid.N, float(c)))
