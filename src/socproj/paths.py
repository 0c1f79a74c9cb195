"""Seeded Brownian increments and forward Euler simulation of the state.

Increments are drawn from one Philox stream keyed by the seed, filled
row-major: path lambda holds draws lambda*N ... lambda*N + N - 1.  The
ensemble is therefore fixed by (seed, L, N), and its first L paths do not
change when more paths are drawn; a path does change with N.  By default
the ensemble is then moment-normalized per time step (sample mean exactly 0,
sample variance exactly dt across paths).  The normalization is what makes
the mean-state recursion, and with it the multiplier's feasibility
restoration, exact in floating point whenever the diffusion does not depend
on the state; it can be disabled per ensemble.

One ensemble is generated per solve and reused for every iteration, so
control perturbations propagate through identical noise (common random
numbers).  Each Euler pass checks its states for finiteness once, at its end.
A step whose b_y is +0.0 adds its drift to every path as one scalar, and a
constant diffusion adds its column of sigma dW, an array filled once per
solve.

Storage order: every per-step ensemble array (``BrownianEnsemble.increments``,
``PathEnsemble.states`` and the LSMC ``BsdeSolution.p_hat``/``q_hat``) is
column-major, shape (L, steps), so one time step's L path values, column
``[:, n]``, are one contiguous block for the forward and backward sweeps.
A mean across paths is ``.mean(axis=0)``, a pairwise sum down each column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid, trapezoid
from .problems import GridProblem, constant_value

if TYPE_CHECKING:
    from .lsmc import Workspace

__all__ = [
    "BrownianEnsemble",
    "PathEnsemble",
    "SimulationError",
    "derive_seed",
    "euler_simulate",
    "gen_brownian",
    "mean_state_integral",
]

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, key: int) -> int:
    """Deterministic 63-bit child seed via a splitmix64-style mix of (base, key)."""
    x = (base + (key + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x & ((1 << 63) - 1)


class SimulationError(RuntimeError):
    """A state path left the representable range (diffusion blow-up)."""


@dataclass(frozen=True, eq=False)
class BrownianEnsemble:
    """L seeded Brownian increment paths on a grid, shape (L, N), stored
    column-major (a row-major array is converted once): step n's increments
    are the contiguous column [:, n]."""

    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self) -> None:
        if self.increments.shape[1] != self.grid.N:
            raise ValueError("increments do not match the grid")
        object.__setattr__(self, "increments", np.asfortranarray(self.increments))
        self.increments.setflags(write=False)

    @property
    def L(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """L Euler state trajectories on a grid, shape (L, N+1), stored
    column-major (a row-major array is converted once): node n's states are
    the contiguous column [:, n]."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self) -> None:
        if self.states.shape[1] != self.grid.N + 1:
            raise ValueError("states do not match the grid")
        object.__setattr__(self, "states", np.asfortranarray(self.states))
        self.states.setflags(write=False)

    @property
    def L(self) -> int:
        return self.states.shape[0]


def gen_brownian(
    seed: int, L: int, grid: TimeGrid, normalize: bool = True
) -> BrownianEnsemble:
    """Generate L increment paths, deterministic given (seed, L, N).

    One Philox stream keyed by ``seed`` fills the (L, N) array row-major, so
    row lambda is draws lambda*N ... lambda*N + N - 1 of that stream.  With
    ``normalize`` (the default) each step's column is then shifted and scaled
    to sample mean 0 and sample variance dt exactly; requires L >= 2 and is
    skipped otherwise.  The ensemble stores the rows column-major.
    """
    if L < 1:
        raise ValueError(f"path count must be >= 1, got {L}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    dw = np.empty((L, grid.N))
    np.random.Generator(np.random.Philox(key=seed)).standard_normal(out=dw)
    dw *= np.sqrt(grid.dt)
    if normalize and L >= 2:
        dw -= dw.mean(axis=0)
        scale = np.sqrt(np.mean(dw * dw, axis=0))
        if np.any(scale <= 0.0):
            raise SimulationError("degenerate increment column")
        dw *= np.sqrt(grid.dt) / scale
    return BrownianEnsemble(grid=grid, increments=dw)


def _forward_terms(problem: GridProblem, bw: BrownianEnsemble, noise: np.ndarray) -> tuple:
    """What every Euler pass of ``problem`` on ``bw`` reads, whatever the
    control: b_y, b_u and m as lists, whether each step's b_y is +0.0, and,
    for a ``constant`` sigma, the noise term sigma dW written into ``noise``
    ((L, N) column-major; else None).
    """
    by = problem.b_y
    scalar_drift = ((by == 0.0) & ~np.signbit(by)).tolist()
    value = constant_value(problem.spec.diffusion.sigma)
    if value is not None:
        with np.errstate(over="ignore"):
            noise = np.multiply(value, bw.increments, out=noise)
    else:
        noise = None
    return by.tolist(), problem.b_u.tolist(), problem.m.tolist(), scalar_drift, noise


def euler_simulate(
    problem: GridProblem,
    control: StepFunction,
    bw: BrownianEnsemble,
    workspace: Optional[Workspace] = None,
) -> PathEnsemble:
    """Forward Euler of the controlled state, path-parallel over the ensemble.

    y_{n+1} = y_n + (b_y[n] y_n + b_u[n] u_n + m[n]) dt
              + sigma(y_n, u_n) dW_{n+1}

    Steps run in place, in the formula's order.  A step with b_y[n] = +0.0
    adds the one scalar (b_u[n] u_n + m[n]) dt to y_n: the term it drops,
    b_y[n] y_n, is then a signed zero that changes no finite sum (with
    b_y[n] = -0.0 it can flip the sign of a zero state, so such a step keeps
    the full formula).  A ``problems.constant`` sigma is never called: each
    step adds its column of the noise array sigma dW, the same product.  Each
    step adds y_n, so a state stays non-finite once it is: the last column is
    the pass's one check.

    The pass writes into the state array of ``workspace`` and reads its
    per-solve terms, so the returned states are overwritten by the next pass
    through it; without one it runs in a fresh ``lsmc.Workspace``.
    """
    if not (problem.grid == control.grid == bw.grid):
        raise ValueError("problem, control and increments live on different grids")
    grid = bw.grid
    dt = grid.dt
    if workspace is None:
        from .lsmc import HYPERCUBE, Workspace  # lsmc imports this module
        workspace = Workspace(bw.L, grid.N, 1, HYPERCUBE)
    workspace.bind(problem, bw)
    states = workspace.states
    by, bu, m, scalar_drift, noise = workspace.forward
    sigma, dw = problem.spec.diffusion.sigma, bw.increments

    states[:, 0] = problem.spec.y0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(control.values.tolist()):
            y, out = states[:, n], states[:, n + 1]
            if scalar_drift[n]:
                np.add(y, (bu[n] * u + m[n]) * dt, out=out)
            else:
                np.multiply(by[n], y, out=out)
                out += bu[n] * u
                out += m[n]
                out *= dt
                np.add(y, out, out=out)
            if noise is not None:
                out += noise[:, n]
            else:
                out += sigma(y, u) * dw[:, n]
    if not np.isfinite(states[:, -1]).all():
        bad = 1 + np.argmin(np.isfinite(states[:, 1:]).all(axis=0))
        raise SimulationError(f"non-finite state at step {bad}")
    return PathEnsemble(grid=grid, states=states.view())


def mean_state_integral(paths: PathEnsemble) -> float:
    """Trapezoidal rule applied to the cross-path nodal means."""
    return trapezoid(paths.states.mean(axis=0), paths.grid)
