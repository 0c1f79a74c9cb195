"""Least-squares Monte Carlo solution of the adjoint backward equation.

Regression bases are indicator functions of state-space cells (equal-width
hypercube cells or Voronoi cells around sample quantiles), so each per-step
least squares reduces to per-cell sample means: the minimizer of
(1/L) sum (z_l - sum_k a_k 1_{cell k}(x_l))^2 assigns every occupied cell the
mean of its targets and every empty cell zero.

A Voronoi partition needs the step's samples in sorted order: its K quantiles
are read off the sorted column with the same arithmetic as
``np.quantile(method="linear")``, so they match it bit for bit, and every
sample's cell comes from rank cuts in that sorted column.  The cell array is
the only link between partition and regression: ``build_partition`` fills one
per step, and ``regress`` takes it for both the P- and the Q-regression of
that step.  Only its fitted values and its sort order outlive a step: the
next pass on the same ensemble (``cold_orders``) starts from that order.  It
often sorts the barely moved samples already; else a stable argsort of the
gathered column completes it, cheaper than a fresh sort when few paths swap.

The backward recursion is explicit: at step n the Q-values regress
dW_{n+1} p_{n+1} / dt on the step-n cells, then the P-values regress
p_{n+1} + f(t_n, y_n, p_{n+1}, Q_n(y_n), u_n) dt, where p_{n+1} are the
step-(n+1) fitted values (terminal values are the raw g(y_N)).

The driver is multiplier-free: the multiplier enters the adjoint only through
the shift identity P = P_hat + mu*psi, Q = Q_hat.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid
from .paths import BrownianEnsemble, PathEnsemble, SimulationError
from .problems import GridProblem, vanishes

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
    ``np.quantile(method="linear")`` values, bit for bit) and assign by
    nearest center with ties to the lower index.  All-equal samples give one
    cell.
    """

    kind: str
    n_cells: int
    lo: float = math.nan
    hi: float = math.nan
    boundaries: Optional[np.ndarray] = None

    def assign(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty(len(y), dtype=np.intp) if out is None else out
        if self.n_cells == 1:
            out[:] = 0
        elif self.kind == HYPERCUBE:
            idx = np.subtract(y, self.lo)
            idx /= self.hi - self.lo
            idx *= self.n_cells
            np.clip(np.floor(idx, out=idx), 0, self.n_cells - 1, out=out, casting="unsafe")
        else:
            out[:] = np.searchsorted(self.boundaries, y, side="left")
        return out


def _quantile_plan(n: int, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices and lerp weights of ``np.quantile(samples, q)`` for n samples,
    in the operations and order of numpy's ``linear`` method."""
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = -1
    above[at_top] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    gamma = virtual - below
    return below, above, gamma, 1 - gamma, gamma >= 0.5


@functools.lru_cache(maxsize=32)
def _voronoi_plan(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The quantile plan of k Voronoi centers among n samples (shared: read only)."""
    return _quantile_plan(n, np.arange(1, k + 1) / (k + 1))


def _linear_quantiles(ordered: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """``np.quantile(samples, q)`` bit for bit, from ``_quantile_plan``."""
    below, above, gamma, one_minus_gamma, upper = plan
    a, b = ordered[below], ordered[above]
    diff_b_a = b - a
    out = a + diff_b_a * gamma
    np.subtract(b, diff_b_a * one_minus_gamma, out=out, where=upper)
    return out


def cold_orders(L: int, N: int) -> np.ndarray:
    """Sort cache for the backward passes on L paths and N steps: no order known."""
    return np.full((L, N), -1, dtype=np.intp, order="F")


def build_partition(
    samples: np.ndarray, spec: BasisSpec, cells: np.ndarray, order: np.ndarray
) -> Partition:
    """Build the step's partition of ``spec.K`` cells from the sampled states
    and fill ``cells`` (intp, len(samples)) with ``part.assign(samples)``.
    A Voronoi step reads both from the sorted samples and leaves the sorting
    permutation in ``order`` (intp, len(samples); hypercubes ignore it), which
    must start with -1 (no order known) or be a permutation such as an earlier
    call left there: unchecked, as a check would cost what the cache saves.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if len(cells) != len(samples) or len(order) != len(samples):
        raise ValueError("cells and order need one entry per sample")
    if spec.kind == VORONOI:
        return _voronoi_partition(samples, spec.K, cells, order)
    lo, hi = float(samples.min()), float(samples.max())
    part = Partition(kind=HYPERCUBE, n_cells=1 if hi == lo else spec.K, lo=lo, hi=hi)
    part.assign(samples, out=cells)
    return part


def _voronoi_partition(
    samples: np.ndarray, k: int, cells: np.ndarray, order: np.ndarray
) -> Partition:
    """Cells around the k quantiles, all read from the sorted samples."""
    ordered = samples[order] if order[0] >= 0 else None
    if ordered is None:
        order[:] = np.argsort(samples)
        ordered = samples[order]
    elif not (ordered[:-1] <= ordered[1:]).all():
        resort = np.argsort(ordered, kind="stable")
        order[:] = order[resort]
        ordered = ordered[resort]
    lo, hi = float(ordered[0]), float(ordered[-1])
    centers = np.unique(_linear_quantiles(ordered, _voronoi_plan(len(ordered), k)))
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
    so step n's values are the contiguous column [:, n].  q_hat is all zeros
    when the Q-regression was skipped (sigma_y and sigma_u both ``ZERO``)."""

    grid: TimeGrid
    p_hat: np.ndarray
    q_hat: np.ndarray


def solve_bsde_hat(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: GridProblem,
    control: StepFunction,
    spec: BasisSpec,
    orders: np.ndarray,
) -> BsdeSolution:
    """Backward LSMC with the multiplier-free driver
    f_hat = h_y(t_n, y) + p b_y[n] + q sigma_y(y, u).

    A sigma_y that ``problems.vanishes`` drops the q-term of f_hat; with
    sigma_u vanishing too, no Q-regression runs and q_hat is all zeros.  Only
    the ``ZERO`` sentinel counts: any other callback keeps the full path.

    Column n of ``orders`` is step n's sort cache for ``build_partition``:
    from ``cold_orders`` or left by an earlier call, never edited.  A
    non-finite target spreads through p_{n+1} to every earlier fit, so one
    check after the pass finds it, and the highest non-finite fit names it.
    """
    if not (paths.grid == bw.grid == control.grid == problem.grid):
        raise ValueError("paths, increments, control and problem must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    if orders.shape != (L, N) or orders.dtype != np.intp:
        raise ValueError(f"orders must be an ({L}, {N}) intp array")
    y = paths.states
    dw = bw.increments
    diff, costs = problem.spec.diffusion, problem.spec.costs

    sigma_y_live = not vanishes(diff.sigma_y)
    q_live = sigma_y_live or not vanishes(diff.sigma_u)

    p = np.empty((L, N + 1), order="F")
    q = np.empty((L, N), order="F") if q_live else np.zeros((L, N), order="F")
    p[:, N] = costs.g(y[:, N])

    # Each step's cells, overwritten by the next step.
    cells = np.empty(L, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N - 1, -1, -1):
            yn = y[:, n]
            tn = float(grid.nodes[n])
            un = float(control.values[n])
            n_cells = build_partition(yn, spec, cells, orders[:, n]).n_cells

            p_next = p[:, n + 1]
            f = costs.h_y(tn, yn) + p_next * problem.b_y[n]
            if q_live:
                target_q = dw[:, n] * p_next / dt
                _, q_fit = regress(cells, target_q, n_cells)
                q[:, n] = q_fit
                if sigma_y_live:
                    f += q_fit * diff.sigma_y(yn, un)
            target_p = p_next + f * dt
            _, p_fit = regress(cells, target_p, n_cells)
            p[:, n] = p_fit

    if not np.isfinite(p[:, 0]).all():
        bad = np.flatnonzero(~np.isfinite(p[:, :N]).all(axis=0))[-1]
        raise SimulationError(f"non-finite regression target at step {bad}")
    return BsdeSolution(grid=grid, p_hat=p, q_hat=q)
