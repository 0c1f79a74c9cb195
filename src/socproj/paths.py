"""Seeded Brownian increments and forward Euler simulation of the state.

Increments are drawn with counter-based Philox substreams, one per path, so
path lambda is filled from its own stream regardless of how many other paths
exist; one generator serves all paths by resetting its counter.  By default
the ensemble is then moment-normalized per time step (sample mean exactly 0,
sample variance exactly dt across paths).  The normalization is what makes
the mean-state recursion, and with it the multiplier's feasibility
restoration, exact in floating point whenever the diffusion does not depend
on the state; it can be disabled per ensemble.

One ensemble is generated per solve and reused for every iteration, so
control perturbations propagate through identical noise (common random
numbers).  Each Euler pass checks its states for finiteness once, at its end.

Storage order: every per-step ensemble array (``BrownianEnsemble.increments``,
``PathEnsemble.states`` and the LSMC ``BsdeSolution.p_hat``/``q_hat``) is
column-major, shape (L, steps), so one time step's L path values, column
``[:, n]``, are one contiguous block for the forward and backward sweeps.
A mean across paths is ``.mean(axis=0)``, a pairwise sum down each column.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .gridfn import StepFunction, TimeGrid, trapezoid
from .problems import GridProblem

# Philox counter blocks reserved per path substream; each block yields four
# 64-bit words, so this supports ~2e6 normals per path without overlap.
_PATH_STRIDE = 1 << 20

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
    normalized: bool

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


def _philox_c_state(
    bg: np.random.Philox, state: dict
) -> tuple[np.ndarray, np.ndarray] | None:
    """Views (counter, int32 words) of ``bg``'s C ``philox_state``: pointers
    to the counter and the key, then ``buffer_pos`` (int32 word 4), the
    4-word buffer and ``has_uint32`` (word 14).  None if a pointer leaves
    ``bg`` itself or the views disagree with ``state``, a ``bg.state`` read."""
    lo, hi = id(bg), id(bg) + type(bg).__basicsize__
    addr = bg.ctypes.state_address
    if not lo <= addr <= hi - 64:
        return None
    ctr_p, key_p = (ctypes.c_uint64 * 2).from_address(addr)
    if not (lo <= ctr_p <= hi - 32 and lo <= key_p <= hi - 16):
        return None
    ctr = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(ctr_p))
    key = np.ctypeslib.as_array((ctypes.c_uint64 * 2).from_address(key_p))
    ints = np.ctypeslib.as_array((ctypes.c_int32 * 16).from_address(addr))
    same = (
        np.array_equal(ctr, state["state"]["counter"])
        and np.array_equal(key, state["state"]["key"])
        and (ints[4], ints[14]) == (state["buffer_pos"], state["has_uint32"])
    )
    return (ctr, ints) if same else None


def _substream_normals(seed: int, L: int, N: int) -> np.ndarray:
    """Row lambda holds N standard normals from the Philox stream keyed by
    ``seed`` with its counter at lambda * _PATH_STRIDE.

    One bit generator serves every path: Philox output depends only on (key,
    counter), so resetting the counter and emptying the output buffer before
    each path gives exactly the stream a fresh ``Philox(key=seed)`` advanced
    by lambda * _PATH_STRIDE would produce.  The reset writes the counter and
    ``buffer_pos`` in the C state, whose layout is checked against ``bg.state``
    once per call; on a mismatch, or if the counter ends outside path L-1's
    substream, every path is redrawn by setting ``bg.state``.
    """
    bg = np.random.Philox(key=seed)
    normal = np.random.Generator(bg).standard_normal
    state = bg.state  # fresh: empty buffer (buffer_pos 4), no cached uint32
    out = np.empty((L, N))
    c_state = _philox_c_state(bg, state)
    if c_state is not None:
        ctr, ints = c_state
        for lam, row in enumerate(out):
            ctr[0] = lam * _PATH_STRIDE
            ints[4] = 4  # buffer_pos; standard_normal never caches a uint32
            normal(out=row)
        if int(bg.state["state"]["counter"][0]) // _PATH_STRIDE == L - 1:
            return out
    counter = state["state"]["counter"]
    for lam, row in enumerate(out):
        counter[0] = lam * _PATH_STRIDE
        bg.state = state
        normal(out=row)
    return out


def gen_brownian(
    seed: int, L: int, grid: TimeGrid, normalize: bool = True
) -> BrownianEnsemble:
    """Generate L increment paths, deterministic given (seed, L, N).

    With ``normalize`` (the default) each step's column is shifted and scaled
    to sample mean 0 and sample variance dt exactly; requires L >= 2 and is
    skipped otherwise.  Paths are filled and normalized row-major, one
    substream per row; the ensemble stores them column-major.
    """
    if L < 1:
        raise ValueError(f"path count must be >= 1, got {L}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    dw = _substream_normals(seed, L, grid.N)
    dw *= np.sqrt(grid.dt)
    did_normalize = bool(normalize) and L >= 2
    if did_normalize:
        dw -= dw.mean(axis=0)
        scale = np.sqrt(np.mean(dw * dw, axis=0))
        if np.any(scale <= 0.0):
            raise SimulationError("degenerate increment column")
        dw *= np.sqrt(grid.dt) / scale
    return BrownianEnsemble(grid=grid, increments=dw, normalized=did_normalize)


def euler_simulate(
    problem: GridProblem, control: StepFunction, bw: BrownianEnsemble
) -> PathEnsemble:
    """Forward Euler of the controlled state, path-parallel over the ensemble.

    y_{n+1} = y_n + (b_y[n] y_n + b_u[n] u_n + m[n]) dt
              + sigma(y_n, u_n) dW_{n+1}

    Steps run in place, in the formula's order.  Each adds y_n, so a state
    stays non-finite once it is: the last column is the pass's one check.
    """
    if not (problem.grid == control.grid == bw.grid):
        raise ValueError("problem, control and increments live on different grids")
    grid = bw.grid
    dt = grid.dt
    by, bu, m = problem.b_y, problem.b_u, problem.m
    sigma = problem.spec.diffusion.sigma

    states = np.empty((bw.L, grid.N + 1), order="F")
    states[:, 0] = problem.spec.y0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.N):
            y, out = states[:, n], states[:, n + 1]
            u = float(control.values[n])
            np.multiply(by[n], y, out=out)
            out += bu[n] * u
            out += m[n]
            out *= dt
            np.add(y, out, out=out)
            out += sigma(y, u) * bw.increments[:, n]
    if not np.isfinite(states[:, -1]).all():
        bad = 1 + np.argmin(np.isfinite(states[:, 1:]).all(axis=0))
        raise SimulationError(f"non-finite state at step {bad}")
    return PathEnsemble(grid=grid, states=states)


def mean_state_integral(paths: PathEnsemble) -> float:
    """Trapezoidal rule applied to the cross-path nodal means."""
    return trapezoid(paths.states.mean(axis=0), paths.grid)
