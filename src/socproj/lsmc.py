"""Least-squares Monte Carlo solution of the adjoint backward equation.

Regression bases are indicator functions of state-space cells (equal-width
hypercube cells or Voronoi cells around sample quantiles), so each per-step
least squares reduces to per-cell sample means: the minimizer of
(1/L) sum (z_l - sum_k a_k 1_{cell k}(x_l))^2 assigns every occupied cell the
mean of its targets and every empty cell zero.

A Voronoi partition costs one argsort of the step's samples: its K quantiles
are read off the sorted column with the same arithmetic as
``np.quantile(method="linear")``, so they match it bit for bit, and every
sample's cell comes from rank cuts in that sorted column.  The cell array is
the only link between partition and regression: ``build_partition`` fills one
per step, and ``regress`` takes it for both the P- and the Q-regression of
that step.  Nothing of a step outlives it except its fitted values.

The backward recursion is explicit: at step n the Q-values regress
dW_{n+1} p_{n+1} / dt on the step-n cells, then the P-values regress
p_{n+1} + f(t_n, y_n, p_{n+1}, Q_n(y_n), u_n) dt, where p_{n+1} are the
step-(n+1) fitted values (terminal values are the raw g(y_N)).

The driver is multiplier-free: the multiplier enters the adjoint only through
the shift identity P = P_hat + mu*psi, Q = Q_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid
from .paths import BrownianEnsemble, PathEnsemble, SimulationError
from .problems import GridProblem

HYPERCUBE = "hypercube"
VORONOI = "voronoi"


@dataclass(frozen=True)
class BasisSpec:
    """Indicator-basis family and the number of cells per time step, which
    sizes the one partition both regressions of a step use."""

    kind: str
    K: int

    def __post_init__(self) -> None:
        if self.kind not in (HYPERCUBE, VORONOI):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")


@dataclass(frozen=True, eq=False)
class Partition:
    """One time step's cell structure with its assignment rule.

    Hypercube partitions carry (lo, hi) and split the range into n_cells
    equal cells, the last one closed on the right; Voronoi partitions carry
    the midpoints between their sorted centers (the unique
    ``np.quantile(method="linear")`` values, bit for bit, read from one sort
    of the step's samples) and assign by nearest center with ties to the
    lower index.  A degenerate sample (all values equal) collapses to a
    single cell.  No per-sample array is kept: the cells of the samples a
    partition was built from go into the array handed to ``build_partition``.
    """

    kind: str
    n_cells: int
    lo: float = math.nan
    hi: float = math.nan
    boundaries: Optional[np.ndarray] = None

    def assign(self, y: np.ndarray) -> np.ndarray:
        if self.n_cells == 1:
            return np.zeros(len(y), dtype=np.intp)
        if self.kind == HYPERCUBE:
            idx = np.floor((y - self.lo) / (self.hi - self.lo) * self.n_cells)
            return np.clip(idx, 0, self.n_cells - 1).astype(np.intp)
        return np.searchsorted(self.boundaries, y, side="left").astype(np.intp)


def _linear_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, q)`` read off the sorted samples, bit for bit.

    The operations of numpy's ``linear`` method in its order: virtual index
    (n-1)*q, its floor and the next index (both pinned to the last sample
    when the virtual index reaches n-1), then its lerp, which subtracts from
    the right neighbour where the weight is at least 1/2.
    """
    n = len(ordered)
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = -1
    above[at_top] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    gamma = virtual - below
    a, b = ordered[below], ordered[above]
    diff_b_a = b - a
    out = a + diff_b_a * gamma
    np.subtract(b, diff_b_a * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def build_partition(samples: np.ndarray, spec: BasisSpec, cells: np.ndarray) -> Partition:
    """Build the step's partition of ``spec.K`` cells from the sampled states
    and fill ``cells``, an intp array of len(samples), with each sample's cell
    (equal to ``part.assign(samples)``).

    A Voronoi step reads its quantiles (equal to ``np.quantile(method="linear")``
    bit for bit) and its cells from one argsort of the samples; a hypercube
    step takes its cells from one pass of its floor rule.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        part = Partition(kind=spec.kind, n_cells=1, lo=lo, hi=hi)
    elif spec.kind == VORONOI:
        return _voronoi_partition(samples, spec.K, lo, hi, cells)
    else:
        part = Partition(kind=HYPERCUBE, n_cells=spec.K, lo=lo, hi=hi)
    cells[:] = part.assign(samples)
    return part


def _voronoi_partition(
    samples: np.ndarray, k: int, lo: float, hi: float, cells: np.ndarray
) -> Partition:
    """Cells around the k quantiles, all read from one argsort of the samples."""
    order = np.argsort(samples)
    ordered = samples[order]
    centers = np.unique(_linear_quantiles(ordered, np.arange(1, k + 1) / (k + 1)))
    if len(centers) == 1:
        cells[:] = 0
        return Partition(kind=VORONOI, n_cells=1, lo=lo, hi=hi)
    boundaries = 0.5 * (centers[:-1] + centers[1:])
    # A sample's cell is the number of boundaries below it, so cell c
    # holds the sorted ranks cuts[c] .. cuts[c+1]-1.
    cuts = np.empty(len(centers) + 1, dtype=np.intp)
    cuts[0], cuts[-1] = 0, len(ordered)
    cuts[1:-1] = np.searchsorted(ordered, boundaries, side="right")
    cells[order] = np.repeat(np.arange(len(centers)), np.diff(cuts))
    return Partition(
        kind=VORONOI, n_cells=len(centers), lo=lo, hi=hi, boundaries=boundaries
    )


def regress(
    cells: np.ndarray, z: np.ndarray, n_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of z grouped by ``cells`` (as filled in by
    ``build_partition``, each in 0 .. n_cells-1).
    Returns (coefficients, fitted values); empty cells get coefficient 0.
    """
    z = np.asarray(z, dtype=float)
    counts = np.bincount(cells, minlength=n_cells)
    sums = np.bincount(cells, weights=z, minlength=n_cells)
    coef = np.divide(sums, counts, out=np.zeros(n_cells), where=counts > 0)
    return coef, coef[cells]


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Regressed adjoint values on each path: p_hat is (L, N+1) with the raw
    terminal column, q_hat is (L, N), both column-major like the ensembles,
    so step n's values are the contiguous column [:, n]; average them over
    paths with ``paths.path_mean`` (path order), not ``.mean(axis=0)``
    (pairwise on this layout).  No step's partition, cells or coefficients
    are kept."""

    grid: TimeGrid
    p_hat: np.ndarray
    q_hat: np.ndarray


def solve_bsde_hat(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: GridProblem,
    control: StepFunction,
    spec: BasisSpec,
) -> BsdeSolution:
    """Backward LSMC with the multiplier-free driver
    f_hat = h_y(t_n, y) + p b_y[n] + q sigma_y(y, u)."""
    if not (paths.grid == bw.grid == control.grid == problem.grid):
        raise ValueError("paths, increments, control and problem must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    y = paths.states
    dw = bw.increments
    diff, costs = problem.spec.diffusion, problem.spec.costs

    p = np.empty((L, N + 1), order="F")
    q = np.empty((L, N), order="F")
    p[:, N] = costs.g(y[:, N])

    # Each step's cells, overwritten by the next step.
    cells = np.empty(L, dtype=np.intp)
    for n in range(N - 1, -1, -1):
        yn = y[:, n]
        tn = float(grid.nodes[n])
        un = float(control.values[n])
        n_cells = build_partition(yn, spec, cells).n_cells

        p_next = p[:, n + 1]
        target_q = dw[:, n] * p_next / dt
        _, q_fit = regress(cells, target_q, n_cells)

        f = (
            costs.h_y(tn, yn)
            + p_next * problem.b_y[n]
            + q_fit * diff.sigma_y(yn, un)
        )
        target_p = p_next + f * dt
        if not np.all(np.isfinite(target_p)):
            raise SimulationError(f"non-finite regression target at step {n}")
        _, p_fit = regress(cells, target_p, n_cells)

        p[:, n] = p_fit
        q[:, n] = q_fit

    return BsdeSolution(grid=grid, p_hat=p, q_hat=q)

