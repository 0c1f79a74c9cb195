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

One ensemble serves every iteration of a solve, so control perturbations
propagate through identical noise (common random numbers); solves through
one ``lsmc.Workspace`` with the same (seed, L, grid, normalization), such as
the components of a vector sweep on one grid, share it.  Each Euler pass
checks its states for finiteness once, at its end.  A step whose b_y is +0.0
adds its drift to every path as one scalar, and a constant sigma c adds its
column of c dW, an array the workspace makes once per c and ensemble.

Storage order: every per-step ensemble array (``BrownianEnsemble.increments``,
``PathEnsemble.states`` and the LSMC ``BsdeSolution.p_hat``/``q_hat``) is
column-major, shape (L, steps), so one time step's L path values, column
``[:, n]``, are one contiguous block for the forward and backward sweeps.
A mean across paths is ``.mean(axis=0)``, a pairwise sum down each column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid, trapezoid
from .problems import GridProblem

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
_BLOCK = 1 << 15  # doubles per drawn row block (256 KiB)


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
    """A solve broke down: a state path left the representable range
    (diffusion blow-up), the iteration diverged, or an exact feasibility
    restoration missed."""


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
    skipped otherwise.

    The rows are drawn in blocks of about ``_BLOCK`` doubles and copied into
    the column-major array the ensemble stores, so for N >= 2 the call holds
    one ensemble and one block at its peak (and, below 8192 paths, numpy's
    64 KiB ufunc buffer).  The column sums of the moments add the rows in
    path order, as a row-major ``mean(axis=0)`` does; with N = 1 the column
    is contiguous and numpy's pairwise mean is kept.
    """
    if L < 1:
        raise ValueError(f"path count must be >= 1, got {L}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    N, root_dt = grid.N, np.sqrt(grid.dt)
    dw = np.empty((L, N), order="F")
    normal = np.random.Generator(np.random.Philox(key=seed)).standard_normal

    def draw(block: np.ndarray, rows: slice) -> None:
        normal(out=block)
        block *= root_dt
        dw[rows] = block

    def square(block: np.ndarray, rows: slice) -> None:
        block[...] = dw[rows]  # a ufunc across the two layouts would buffer
        block *= block

    buf = np.empty((min(max(1, _BLOCK // N), L) + 1, N))
    total = _by_row_blocks(buf, L, draw)
    if normalize and L >= 2:
        dw -= total / L if N > 1 else dw.mean(axis=0)
        sumsq = _by_row_blocks(buf, L, square) if N > 1 else np.sum(dw * dw, axis=0)
        scale = np.sqrt(sumsq / L)
        if np.any(scale <= 0.0):
            raise SimulationError("degenerate increment column")
        dw *= root_dt / scale
    return BrownianEnsemble(grid=grid, increments=dw)


def _by_row_blocks(
    buf: np.ndarray, L: int, fill: Callable[[np.ndarray, slice], None]
) -> np.ndarray:
    """Call ``fill(block, rows)`` on the consecutive row blocks of an L-row
    array, each block a C-order view of ``buf``'s rows 1 and on, and return
    the column sums of what it wrote, added row by row as a row-major
    ``sum(axis=0)`` adds them: row 0 of ``buf`` carries the running sums
    into each block's reduce."""
    size, total = len(buf) - 1, np.zeros(buf.shape[1])
    for start in range(0, L, size):
        block = buf[1 : 1 + min(size, L - start)]
        fill(block, slice(start, start + len(block)))
        buf[0] = total
        np.add.reduce(buf[: 1 + len(block)], axis=0, out=total)
    return total


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
    the full formula).  A ``problems.constant(c)`` sigma is never called:
    each step adds its column of the noise array c dW, the same product,
    which the workspace makes once per c for the ensemble it holds.  Each
    step adds y_n, so a state stays non-finite once it is: the last column is
    the pass's one check.

    The pass writes into the state array of ``workspace`` (and keeps the
    noise array there), so the returned states are overwritten by the next
    pass through it; without one it runs in a fresh ``lsmc.Workspace``.
    """
    if not (problem.grid == control.grid == bw.grid):
        raise ValueError("problem, control and increments live on different grids")
    grid = bw.grid
    dt = grid.dt
    if workspace is None:
        from .lsmc import Workspace  # lsmc imports this module
        workspace = Workspace(bw.L, grid.N)
    workspace.serve(bw)
    states = workspace.states[:, : grid.N + 1]
    c = problem.sigma_value
    noise = None if c is None else workspace.noise(c)
    by, bu, m = problem.b_y.tolist(), problem.b_u.tolist(), problem.m.tolist()
    sigma, dw = problem.spec.diffusion.sigma, bw.increments

    states[:, 0] = problem.spec.y0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in enumerate(control.values.tolist()):
            y, out = states[:, n], states[:, n + 1]
            if by[n] == 0.0 and math.copysign(1.0, by[n]) > 0.0:
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
    return PathEnsemble(grid=grid, states=states)


def mean_state_integral(paths: PathEnsemble) -> float:
    """Trapezoidal rule applied to the cross-path nodal means."""
    return trapezoid(paths.states.mean(axis=0), paths.grid)
