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
per step, with the per-cell counts, and ``regress`` takes both for the P- and
the Q-regression of that step.  A ``PartitionCache`` carries each step's sort
order, cells and rank cuts from one backward pass to the next on the same
ensemble.  The carried order often sorts the barely moved samples already;
else a stable argsort of the gathered column completes it, cheaper than a
fresh sort when few paths swap.  When the order needed no repair and the new
cuts equal the carried ones, the carried cells are exactly what the step
would write, and the step keeps them.

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

__all__ = [
    "HYPERCUBE",
    "VORONOI",
    "BasisSpec",
    "BsdeSolution",
    "Partition",
    "PartitionCache",
    "build_partition",
    "regress",
    "solve_bsde_hat",
]

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
    equal cells, the last one closed on the right; ``assign`` takes states in
    [lo, hi], such as the samples the partition was built from.  Voronoi
    partitions carry the midpoints between their sorted centers (the unique
    ``np.quantile(method="linear")`` values, bit for bit) and assign by
    nearest center with ties to the lower index.  All-equal samples give one
    cell.  A built partition also carries its samples' per-cell ``counts``.
    """

    kind: str
    n_cells: int
    lo: float = math.nan
    hi: float = math.nan
    boundaries: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    def assign(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.empty(len(y), dtype=np.intp) if out is None else out
        if self.n_cells == 1:
            out[:] = 0
        elif self.kind == HYPERCUBE:
            idx = np.subtract(y, self.lo)
            idx /= self.hi - self.lo
            idx *= self.n_cells
            np.minimum(np.floor(idx, out=idx), self.n_cells - 1, out=out, casting="unsafe")
        else:
            out[:] = np.searchsorted(self.boundaries, y, side="left")
        return out


class PartitionCache:
    """What one solve's backward passes carry from pass to pass, per step n:
    the sort order ``orders[:, n]``, the cells ``cells[:, n]`` and the rank
    cuts ``cuts[:, n]`` (at most K + 1 of them) of the step's last Voronoi
    partition.  All are column-major intp arrays; -1 in the first entry of an
    order or cuts column means nothing is known yet.
    """

    def __init__(self, L: int, N: int, K: int):
        self.orders = np.full((L, N), -1, dtype=np.intp, order="F")
        self.cells = np.empty((L, N), dtype=np.intp, order="F")
        self.cuts = np.full((K + 1, N), -1, dtype=np.intp, order="F")


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


def build_partition(
    samples: np.ndarray,
    spec: BasisSpec,
    cells: np.ndarray,
    order: np.ndarray,
    cuts: np.ndarray,
) -> Partition:
    """Build the step's partition of ``spec.K`` cells from the sampled states
    and fill ``cells`` (intp, len(samples)) with ``part.assign(samples)``.

    A Voronoi step reads both from the sorted samples.  It leaves the sorting
    permutation in ``order`` (intp, len(samples)) and the rank cuts of its
    cells in ``cuts`` (intp, spec.K + 1); a hypercube step ignores ``order``
    and marks ``cuts`` unknown.  Each of the three holds either the cold
    sentinel (-1 first in ``order`` and ``cuts``) or what an earlier call on
    the same three left there, and callers never edit them: unchecked, as a
    check would cost what the cache saves.  When the carried order still
    sorts the samples and the cuts come out as carried, ``cells`` already
    holds the step's cells and is left as it is.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if len(cells) != len(samples) or len(order) != len(samples):
        raise ValueError("cells and order need one entry per sample")
    if len(cuts) != spec.K + 1:
        raise ValueError(f"cuts need K + 1 = {spec.K + 1} entries")
    if spec.kind == VORONOI:
        return _voronoi_partition(samples, spec.K, cells, order, cuts)
    cuts[0] = -1
    lo, hi = float(samples.min()), float(samples.max())
    n_cells = 1 if hi == lo else spec.K
    Partition(HYPERCUBE, n_cells, lo, hi).assign(samples, out=cells)
    if n_cells == 1:
        counts = np.array([len(samples)])
    else:
        counts = np.bincount(cells, minlength=n_cells)
    return Partition(HYPERCUBE, n_cells, lo, hi, counts=counts)


def _voronoi_partition(
    samples: np.ndarray, k: int, cells: np.ndarray, order: np.ndarray, cuts: np.ndarray
) -> Partition:
    """Cells around the k quantiles, all read from the sorted samples."""
    carried = order[0] >= 0
    if not carried:
        order[:] = np.argsort(samples)
    ordered = samples[order]
    if carried and not (ordered[:-1] <= ordered[1:]).all():
        resort = np.argsort(ordered, kind="stable")
        order[:] = order[resort]
        ordered = ordered[resort]
        carried = False
    lo, hi = float(ordered[0]), float(ordered[-1])
    centers = np.unique(_linear_quantiles(ordered, _voronoi_plan(len(ordered), k)))
    n_cells = len(centers)
    boundaries = 0.5 * (centers[:-1] + centers[1:])
    # A sample's cell is the number of boundaries below it, so cell c
    # holds the sorted ranks new[c] .. new[c+1]-1.
    new = np.empty(n_cells + 1, dtype=np.intp)
    new[0], new[-1] = 0, len(ordered)
    new[1:-1] = np.searchsorted(ordered, boundaries, side="right")
    counts = np.diff(new)
    if not (carried and np.array_equal(new, cuts[: n_cells + 1])):
        cells[order] = np.repeat(np.arange(n_cells), counts)
        cuts[: n_cells + 1] = new
    return Partition(VORONOI, n_cells, lo, hi, boundaries if n_cells > 1 else None, counts)


def regress(
    cells: np.ndarray, z: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of z grouped by ``cells`` (as filled in by
    ``build_partition``, each in 0 .. len(counts)-1, cell c holding
    ``counts[c]`` samples).  Writes the fitted values into ``out`` (float,
    len(z)) and returns (coefficients, out); empty cells get coefficient 0.
    """
    n_cells = len(counts)
    sums = np.bincount(cells, weights=z, minlength=n_cells)
    coef = np.divide(sums, counts, out=np.zeros(n_cells), where=counts > 0)
    # The cells are in range by construction; mode="clip" spares the
    # buffered copy that the default mode makes when given ``out``.
    return coef, np.take(coef, cells, out=out, mode="clip")


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
    cache: PartitionCache,
) -> BsdeSolution:
    """Backward LSMC with the multiplier-free driver
    f_hat = h_y(t_n, y) + p b_y[n] + q sigma_y(y, u).

    A sigma_y that ``problems.vanishes`` drops the q-term of f_hat; with
    sigma_u vanishing too, no Q-regression runs and q_hat is all zeros.  Only
    the ``ZERO`` sentinel counts: any other callback keeps the full path.

    Step n hands column n of each ``cache`` array to ``build_partition``.
    The cache is a fresh ``PartitionCache(L, N, spec.K)`` or what earlier
    calls on it left there, and callers never edit it.  A non-finite target
    spreads through p_{n+1} to every earlier fit, so one check after the pass
    finds it, and the highest non-finite fit names it.
    """
    if not (paths.grid == bw.grid == control.grid == problem.grid):
        raise ValueError("paths, increments, control and problem must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    if cache.cells.shape != (L, N) or len(cache.cuts) != spec.K + 1:
        raise ValueError(f"cache must be a PartitionCache({L}, {N}, {spec.K})")
    y = paths.states
    dw = bw.increments
    diff, costs = problem.spec.diffusion, problem.spec.costs

    sigma_y_live = not vanishes(diff.sigma_y)
    q_live = sigma_y_live or not vanishes(diff.sigma_u)

    p = np.empty((L, N + 1), order="F")
    q = np.empty((L, N), order="F") if q_live else np.zeros((L, N), order="F")
    p[:, N] = costs.g(y[:, N])

    # Each step's generator and regression target, overwritten by the next step.
    f, target = np.empty(L), np.empty(L)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N - 1, -1, -1):
            yn = y[:, n]
            tn = float(grid.nodes[n])
            un = float(control.values[n])
            cells = cache.cells[:, n]
            counts = build_partition(
                yn, spec, cells, cache.orders[:, n], cache.cuts[:, n]
            ).counts

            p_next = p[:, n + 1]
            np.multiply(p_next, problem.b_y[n], out=f)
            np.add(costs.h_y(tn, yn), f, out=f)
            if q_live:
                np.multiply(dw[:, n], p_next, out=target)
                target /= dt
                regress(cells, target, counts, q[:, n])
                if sigma_y_live:
                    f += q[:, n] * diff.sigma_y(yn, un)
            f *= dt
            np.add(p_next, f, out=target)
            regress(cells, target, counts, p[:, n])

    if not np.isfinite(p[:, 0]).all():
        bad = np.flatnonzero(~np.isfinite(p[:, :N]).all(axis=0))[-1]
        raise SimulationError(f"non-finite regression target at step {bad}")
    return BsdeSolution(grid=grid, p_hat=p, q_hat=q)
