"""Least-squares Monte Carlo solution of the adjoint backward equation.

Regression bases are indicator functions of state-space cells (equal-width
hypercube cells or Voronoi cells around sample quantiles), so each per-step
least squares reduces to per-cell sample means: the minimizer of
(1/L) sum (z_l - sum_k a_k 1_{cell k}(x_l))^2 assigns every occupied cell the
mean of its targets and every empty cell zero.

A Voronoi partition costs one argsort of the step's samples: its K quantiles
are read off the sorted column with the same arithmetic as
``np.quantile(method="linear")``, so they match it bit for bit, and every
sample's cell comes from rank cuts in that sorted column.  ``_solve_backward``
asks ``build_partition`` for that cell array and hands it to both regressions
of the step when the P- and Q-regressions share a partition.

The backward recursion is explicit: at step n the Q-values regress
dW_{n+1} p_{n+1} / dt on the step-n cells, then the P-values regress
p_{n+1} + f(t_n, y_n, p_{n+1}, Q_n(y_n), u_n) dt, where p_{n+1} are the
step-(n+1) fitted values (terminal values are the raw g(y_N)).

``solve_bsde_hat`` uses the multiplier-free driver.  ``solve_bsde_full`` runs
the same recursion with the multiplier in the driver; its Q-regression drops
the deterministic mu*psi_{n+1} component of p_{n+1} first, because the
conditional expectation of dW times a deterministic coefficient is exactly
zero, which keeps the shift identity P = P_hat + mu*psi, Q = Q_hat exact at
the sample level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid
from .paths import BrownianEnsemble, PathEnsemble, SimulationError
from .problems import ProblemSpec

HYPERCUBE = "hypercube"
VORONOI = "voronoi"


@dataclass(frozen=True)
class BasisSpec:
    """Indicator-basis family and cell counts per time step.

    ``K`` sizes the P-regression, ``K_tilde`` the Q-regression (defaults to
    K, in which case the two share one partition per step).  With
    ``tau_rule`` the hypercube edge length is tied to dt**1.5 and K is
    ignored for cell sizing.
    """

    kind: str
    K: int
    K_tilde: Optional[int] = None
    tau_rule: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (HYPERCUBE, VORONOI):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.K_tilde is not None and self.K_tilde < 1:
            raise ValueError("K_tilde must be >= 1")

    @property
    def k_for_q(self) -> int:
        return self.K if self.K_tilde is None else self.K_tilde


@dataclass(frozen=True, eq=False)
class Partition:
    """One time step's cell structure with its assignment rule.

    Hypercube partitions carry (lo, hi) and split the range into n_cells
    equal cells, the last one closed on the right; Voronoi partitions carry
    sorted centers (the unique ``np.quantile(method="linear")`` values, bit
    for bit, read from one sort of the step's samples) and assign by nearest
    center with ties to the lower index.  A degenerate sample (all values
    equal) collapses to a single cell.  No per-sample array is kept: the cells
    of the samples a partition was built from are handed out by
    ``build_partition`` and live only for that step.
    """

    step: int
    kind: str
    n_cells: int
    lo: float = math.nan
    hi: float = math.nan
    centers: Optional[np.ndarray] = None
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


def build_partition(
    samples: np.ndarray,
    spec: BasisSpec,
    which: str = "P",
    step: int = 0,
    dt: Optional[float] = None,
    cells: Optional[np.ndarray] = None,
) -> Partition:
    """Build the step's partition from the sampled states.

    ``which`` selects the cell budget ("P" uses K, "Q" uses K_tilde).  A
    Voronoi partition takes its centers from one argsort of the samples (the
    quantiles equal ``np.quantile(method="linear")`` bit for bit).  If
    ``cells`` is given, an intp array of len(samples), it is filled with each
    sample's cell, equal to ``part.assign(samples)``: a Voronoi step takes it
    from rank cuts in the same sorted column, a hypercube step from one pass
    of its floor rule.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    k = spec.K if which == "P" else spec.k_for_q
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        part = Partition(step=step, kind=spec.kind, n_cells=1, lo=lo, hi=hi)
    else:
        if spec.tau_rule:
            if dt is None:
                raise ValueError("tau_rule sizing needs the time step dt")
            k = max(1, math.ceil((hi - lo) / dt**1.5))
        if spec.kind == VORONOI:
            return _voronoi_partition(samples, k, step, lo, hi, cells)
        part = Partition(step=step, kind=HYPERCUBE, n_cells=k, lo=lo, hi=hi)
    if cells is not None:
        cells[:] = part.assign(samples)
    return part


def _voronoi_partition(
    samples: np.ndarray,
    k: int,
    step: int,
    lo: float,
    hi: float,
    cells: Optional[np.ndarray],
) -> Partition:
    """Cells around the k quantiles, all read from one argsort of the samples."""
    order = np.argsort(samples)
    ordered = samples[order]
    centers = np.unique(_linear_quantiles(ordered, np.arange(1, k + 1) / (k + 1)))
    if len(centers) == 1:
        if cells is not None:
            cells[:] = 0
        return Partition(step=step, kind=VORONOI, n_cells=1, lo=lo, hi=hi)
    boundaries = 0.5 * (centers[:-1] + centers[1:])
    if cells is not None:
        # A sample's cell is the number of boundaries below it, so cell c
        # holds the sorted ranks cuts[c] .. cuts[c+1]-1.
        cuts = np.empty(len(centers) + 1, dtype=np.intp)
        cuts[0], cuts[-1] = 0, len(ordered)
        cuts[1:-1] = np.searchsorted(ordered, boundaries, side="right")
        cells[order] = np.repeat(np.arange(len(centers)), np.diff(cuts))
    return Partition(
        step=step,
        kind=VORONOI,
        n_cells=len(centers),
        lo=lo,
        hi=hi,
        centers=centers,
        boundaries=boundaries,
    )


def regress(
    partition: Partition,
    x: np.ndarray,
    z: np.ndarray,
    cells: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of z grouped by the cell of x.

    ``cells``, if given, must equal ``partition.assign(x)`` (as filled in by
    ``build_partition``) and is used instead of assigning again.
    Returns (coefficients, fitted values); empty cells get coefficient 0.
    """
    idx = partition.assign(np.asarray(x, dtype=float)) if cells is None else cells
    z = np.asarray(z, dtype=float)
    counts = np.bincount(idx, minlength=partition.n_cells)
    sums = np.bincount(idx, weights=z, minlength=partition.n_cells)
    coef = np.divide(sums, counts, out=np.zeros(partition.n_cells), where=counts > 0)
    return coef, coef[idx]


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Regressed adjoint values on each path: p_hat is (L, N+1) with the raw
    terminal column, q_hat is (L, N); partitions and per-cell coefficients
    are kept per step for inspection."""

    grid: TimeGrid
    p_hat: np.ndarray
    q_hat: np.ndarray
    partitions: list[tuple[Partition, Partition]]
    coefficients: list[tuple[np.ndarray, np.ndarray]]


def _solve_backward(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: ProblemSpec,
    control: StepFunction,
    spec: BasisSpec,
    mu: float,
    psi: Optional[np.ndarray],
) -> BsdeSolution:
    if not (paths.grid == bw.grid == control.grid):
        raise ValueError("paths, increments and control must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    y = paths.states
    dw = bw.increments
    drift, diff, costs = problem.drift, problem.diffusion, problem.costs

    p = np.empty((L, N + 1))
    q = np.empty((L, N))
    p[:, N] = costs.g(y[:, N])
    partitions: list[tuple[Partition, Partition]] = [None] * N  # type: ignore[list-item]
    coefficients: list[tuple[np.ndarray, np.ndarray]] = [None] * N  # type: ignore[list-item]

    shared = spec.K_tilde is None or spec.K_tilde == spec.K
    # Each step's cells, overwritten by the next step; never kept on a Partition.
    cells_p = np.empty(L, dtype=np.intp)
    cells_q = cells_p if shared else np.empty(L, dtype=np.intp)
    for n in range(N - 1, -1, -1):
        yn = y[:, n]
        tn = float(grid.nodes[n])
        un = float(control.values[n])
        part_p = build_partition(yn, spec, "P", step=n, dt=dt, cells=cells_p)
        part_q = (
            part_p
            if shared
            else build_partition(yn, spec, "Q", step=n, dt=dt, cells=cells_q)
        )

        p_next = p[:, n + 1]
        if psi is None:
            target_q = dw[:, n] * p_next / dt
        else:
            # E[dW * mu*psi_{n+1} | F_n] = 0 exactly (deterministic factor),
            # so only the random component of p_{n+1} is regressed.
            target_q = dw[:, n] * (p_next - mu * psi[n + 1]) / dt
        q_coef, q_fit = regress(part_q, yn, target_q, cells=cells_q)

        f = (
            costs.h_y(tn, yn)
            + p_next * float(drift.b_y(tn))
            + q_fit * diff.sigma_y(yn, un)
            + mu
        )
        target_p = p_next + f * dt
        if not np.all(np.isfinite(target_p)):
            raise SimulationError(f"non-finite regression target at step {n}")
        p_coef, p_fit = regress(part_p, yn, target_p, cells=cells_p)

        p[:, n] = p_fit
        q[:, n] = q_fit
        partitions[n] = (part_p, part_q)
        coefficients[n] = (p_coef, q_coef)

    return BsdeSolution(
        grid=grid, p_hat=p, q_hat=q, partitions=partitions, coefficients=coefficients
    )


def solve_bsde_hat(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: ProblemSpec,
    control: StepFunction,
    spec: BasisSpec,
) -> BsdeSolution:
    """Backward LSMC with the multiplier-free driver
    f_hat = h_y(t, y) + p b_y(t) + q sigma_y(y, u)."""
    return _solve_backward(paths, bw, problem, control, spec, mu=0.0, psi=None)


def solve_bsde_full(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: ProblemSpec,
    control: StepFunction,
    spec: BasisSpec,
    mu: float,
    psi: np.ndarray,
) -> BsdeSolution:
    """Backward LSMC with the multiplier in the driver, f = f_hat + mu.

    On shared paths and partitions the result relates to ``solve_bsde_hat``
    by P = P_hat + mu*psi_n and Q = Q_hat, exactly.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (paths.grid.N + 1,):
        raise ValueError("psi must carry one value per grid node")
    return _solve_backward(paths, bw, problem, control, spec, mu=float(mu), psi=psi)
