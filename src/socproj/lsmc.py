"""Least-squares Monte Carlo solution of the adjoint backward equation.

Regression bases are indicator functions of state-space cells (equal-width
hypercube cells or Voronoi cells around sample quantiles), so each per-step
least squares reduces to per-cell sample means: the minimizer of
(1/L) sum (z_l - sum_k a_k 1_{cell k}(x_l))^2 assigns every occupied cell the
mean of its targets and every empty cell zero.

A Voronoi partition needs the step's samples in sorted order: its K quantiles
are read off the sorted column in one gather, through a cached read-only
plan, with the same arithmetic as ``np.quantile(method="linear")``, so they
match it bit for bit; strictly increasing quantiles are already the sorted
unique centers, so only tied ones go through ``np.unique``.  Every sample's
cell comes from rank cuts in that sorted column.  The cell array is
the only link between partition and regression: ``build_partition`` fills one
per step, with the per-cell counts, and ``regress`` takes both for the P- and
the Q-regression of that step.  A ``Workspace`` carries each step's sort
order, cells and rank cuts from one backward pass to the next on the same
ensemble.  The carried order still sorts samples that kept their ranks (every
warm step of example1); else a stable argsort of the gathered column
completes it, cheaper than a fresh sort when few paths swap (most warm steps
of example2).  When the order needed no repair and the new
cuts equal the carried ones, the carried cells are exactly what the step
would write, and the step keeps them.

The backward recursion is explicit: at step n the Q-values regress
dW_{n+1} p_{n+1} / dt on the step-n cells, then the P-values regress
p_{n+1} + f(t_n, y_n, p_{n+1}, Q_n(y_n), u_n) dt, where p_{n+1} are the
step-(n+1) fitted values (terminal values are the raw g(y_N)).  A step with
b_y = 0.0, of either sign, leaves the signed zero p_{n+1} b_y out of f: a
cell sum starts at +0.0 and ignores the sign of a zero, so every fit stays
the same.  A ``Workspace`` holds the arrays a pass writes, so the passes of
one solve shape allocate no ensemble.

The driver is multiplier-free: the multiplier enters the adjoint only through
the shift identity P = P_hat + mu*psi, Q = Q_hat.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid
from .paths import BrownianEnsemble, PathEnsemble, SimulationError, _forward_terms
from .problems import GridProblem, vanishes

__all__ = [
    "HYPERCUBE",
    "VORONOI",
    "BasisSpec",
    "BsdeSolution",
    "Workspace",
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


class Workspace:
    """The arrays the passes of a solve write, allocated once for L paths, up
    to N steps and K cells: one forward ``states`` array (the states under u
    are dead once the gradient is taken, so the pass under u_half overwrites
    them), ``p_hat`` and ``q_hat`` (all zeros while no Q-regression writes
    it), the backward scratch columns ``f`` and ``target``, the ``noise``
    sigma dW of a ``problems.constant`` sigma, and the per-solve terms of
    both passes.

    It also carries, per step n, the sort order, cells and rank cuts (at
    most K + 1) of the step's last Voronoi partition from one backward pass
    to the next, as column-major intp arrays; -1 in the first entry of an
    order or cuts column means nothing is known yet.  A hypercube step
    carries nothing, so a workspace of kind ``HYPERCUBE`` has no orders and
    one cells column, the scratch of every step; a ``VORONOI`` workspace
    serves both kinds.

    The passes ``bind`` it to their (problem, ensemble) pair on n <= N steps,
    and use the leading columns of each array.  Binding to a new pair resets
    the carried partitions and recomputes the terms, so a used workspace
    gives what a fresh one gives, bit for bit.  A pass returns read-only
    views of its arrays, overwritten by the next pass: copy what you keep.
    """

    def __init__(self, L: int, N: int, K: int, kind: str = VORONOI):
        voronoi = kind == VORONOI
        self._orders = np.empty((L, N), dtype=np.intp, order="F") if voronoi else None
        self._cells = np.empty((L, N if voronoi else 1), dtype=np.intp, order="F")
        self._cuts = np.empty((K + 1, N), dtype=np.intp, order="F")
        self.states = np.empty((L, N + 1), order="F")
        self.p_hat = np.empty((L, N + 1), order="F")
        self.q_hat = np.zeros((L, N), order="F")
        self.noise = np.empty((L, N), order="F")
        self.f, self.target = np.empty(L), np.empty(L)
        self.forward = self.backward = self._bound = None
        self._full = (self._orders, self._cells, self._cuts, self.noise, self.q_hat,
                      self.states, self.p_hat)

    def bind(self, problem: GridProblem, bw: BrownianEnsemble) -> None:
        """Serve the passes of ``problem`` on ``bw``; a no-op when it already
        does.  Weak references name the pair, so a workspace keeps no
        finished solve's ensemble alive."""
        bound = self._bound
        if bound is not None and bound[0]() is problem and bound[1]() is bw:
            return
        orders, cells, cuts, noise, q_hat, states, p_hat = self._full
        n = bw.grid.N
        if bw.L != len(states) or n >= states.shape[1] or problem.grid != bw.grid:
            raise ValueError(f"workspace holds {len(states)} paths of up to "
                             f"{states.shape[1] - 1} steps")
        self._bound = None
        backward = _backward_terms(problem)
        if self.backward is not None and self.backward[1] and not backward[1]:
            q_hat.fill(0.0)  # the last solve's Q-regression wrote it
        self._orders = None if orders is None else orders[:, :n]
        self._cells, self._cuts = cells[:, :n], cuts[:, :n]
        self.noise, self.q_hat = noise[:, :n], q_hat[:, :n]
        self.states, self.p_hat = states[:, : n + 1], p_hat[:, : n + 1]
        self._cuts[0] = -1  # the cold sentinels
        if orders is not None:
            self._orders[0] = -1
        self.forward = _forward_terms(problem, bw, self.noise)
        self.backward = backward
        self._bound = (weakref.ref(problem), weakref.ref(bw))


def _quantile_plan(n: int, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only gather indices and lerp weights of ``np.quantile(samples,
    q)`` for n samples, in the operations of numpy's ``linear`` method.

    numpy takes a + (b - a) g below g = 0.5 and b - (b - a)(1 - g) from
    there.  In IEEE arithmetic b - x is b + (-x) and x (-w) is -(x w), so
    both read base + (b - a) w, with base = a, w = g or base = b,
    w = -(1 - g).  The indices are those of [a, b, base].
    """
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = -1
    above[at_top] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    gamma = virtual - below
    upper = gamma >= 0.5
    ends = np.concatenate((below, above, np.where(upper, above, below)))
    weight = np.where(upper, -(1 - gamma), gamma)
    for a in (ends, weight):
        a.setflags(write=False)
    return ends, weight


@functools.lru_cache(maxsize=32)
def _voronoi_plan(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The quantile plan of k Voronoi centers among n samples, and the cell
    ids 0 .. k-1 (shared: read only)."""
    ids = np.arange(k)
    ids.setflags(write=False)
    return _quantile_plan(n, np.arange(1, k + 1) / (k + 1)), ids


def _linear_quantiles(ordered: np.ndarray, plan: tuple[np.ndarray, ...]) -> np.ndarray:
    """``np.quantile(samples, q)`` bit for bit, from ``_quantile_plan``."""
    ends, weight = plan
    k = len(weight)
    abc = ordered.take(ends)
    out = abc[k : 2 * k] - abc[:k]
    out *= weight
    out += abc[2 * k :]
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
    check would cost what the carry saves.  When the carried order still
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
    # One partition per step: its counts are filled in from its cells.
    counts = np.empty(n_cells, dtype=np.intp)
    part = Partition(HYPERCUBE, n_cells, lo, hi, counts=counts)
    part.assign(samples, out=cells)
    counts[:] = len(samples) if n_cells == 1 else np.bincount(cells, minlength=n_cells)
    return part


def _voronoi_partition(
    samples: np.ndarray, k: int, cells: np.ndarray, order: np.ndarray, cuts: np.ndarray
) -> Partition:
    """Cells around the k quantiles, all read from the sorted samples."""
    carried = order[0] >= 0
    if not carried:
        order[:] = np.argsort(samples)
    ordered = samples.take(order)
    if carried and not (ordered[:-1] <= ordered[1:]).all():
        resort = np.argsort(ordered, kind="stable")
        order[:] = order.take(resort)
        ordered = ordered.take(resort)
        carried = False
    plan, ids = _voronoi_plan(len(ordered), k)
    centers = _linear_quantiles(ordered, plan)
    # Strictly increasing quantiles are their own sorted unique values.
    if not (centers[:-1] < centers[1:]).all():
        centers = np.unique(centers)
    n_cells = len(centers)
    boundaries = np.add(centers[:-1], centers[1:])
    boundaries *= 0.5
    # A sample's cell is the number of boundaries below it, so cell c
    # holds the sorted ranks new[c] .. new[c+1]-1.
    new = np.empty(n_cells + 1, dtype=np.intp)
    new[0], new[-1] = 0, len(ordered)
    new[1:-1] = ordered.searchsorted(boundaries, side="right")
    counts = new[1:] - new[:-1]
    # Two intp arrays are equal when their bytes are.
    if not (carried and new.tobytes() == cuts[: n_cells + 1].tobytes()):
        cells[order] = ids[:n_cells].repeat(counts)
        cuts[: n_cells + 1] = new
    lo, hi = float(ordered[0]), float(ordered[-1])
    return Partition(VORONOI, n_cells, lo, hi, boundaries if n_cells > 1 else None, counts)


def regress(
    cells: np.ndarray, z: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of z grouped by ``cells`` (as filled in by
    ``build_partition``, each in 0 .. len(counts)-1, cell c holding
    ``counts[c]`` samples).  Writes the fitted values into ``out`` (float,
    len(z)) and returns (coefficients, out); empty cells get coefficient 0.
    """
    # An empty cell's sum is the +0.0 that bincount starts from, and
    # dividing it by 1 keeps it.
    coef = np.bincount(cells, weights=z, minlength=len(counts))
    np.divide(coef, np.maximum(counts, 1), out=coef)
    # The cells are in range by construction; mode="clip" spares the
    # buffered copy that the default mode makes when given ``out``.
    return coef, coef.take(cells, out=out, mode="clip")


@dataclass(frozen=True, eq=False)
class BsdeSolution:
    """Regressed adjoint values on each path: p_hat is (L, N+1) with the raw
    terminal column, q_hat is (L, N), both column-major like the ensembles,
    so step n's values are the contiguous column [:, n], and read-only.
    q_hat is all zeros when the Q-regression was skipped (sigma_y and sigma_u
    both ``ZERO``)."""

    grid: TimeGrid
    p_hat: np.ndarray
    q_hat: np.ndarray

    def __post_init__(self) -> None:
        self.p_hat.setflags(write=False)
        self.q_hat.setflags(write=False)


def _backward_terms(problem: GridProblem) -> tuple:
    """What every backward pass of ``problem`` reads, whatever the control:
    whether sigma_y is live, whether any Q-regression is, and the nodes and
    b_y as lists."""
    diff = problem.spec.diffusion
    sigma_y_live = not vanishes(diff.sigma_y)
    q_live = sigma_y_live or not vanishes(diff.sigma_u)
    return sigma_y_live, q_live, problem.grid.nodes.tolist(), problem.b_y.tolist()


def solve_bsde_hat(
    paths: PathEnsemble,
    bw: BrownianEnsemble,
    problem: GridProblem,
    control: StepFunction,
    spec: BasisSpec,
    workspace: Optional[Workspace] = None,
) -> BsdeSolution:
    """Backward LSMC with the multiplier-free driver
    f_hat = h_y(t_n, y) + p b_y[n] + q sigma_y(y, u).

    A sigma_y that ``problems.vanishes`` drops the q-term of f_hat; with
    sigma_u vanishing too, no Q-regression runs and q_hat is all zeros.  Only
    the ``ZERO`` sentinel counts: any other callback keeps the full path.
    A step with b_y[n] = 0.0 of either sign drops the signed zero p b_y[n]
    (see the module docstring).

    The pass writes p_hat and q_hat into ``workspace``, which its next pass
    overwrites, and reuses the partitions that earlier passes on the same
    (problem, ensemble) pair carried there; without one it runs in a fresh
    ``Workspace(L, N, spec.K, spec.kind)``.
    A non-finite target spreads through p_{n+1} to every earlier fit, so one
    check after the pass finds it, and the highest non-finite fit names it.
    """
    if not (paths.grid == bw.grid == control.grid == problem.grid):
        raise ValueError("paths, increments, control and problem must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    if workspace is None:
        workspace = Workspace(L, N, spec.K, spec.kind)
    workspace.bind(problem, bw)
    orders, cells, cuts = workspace._orders, workspace._cells, workspace._cuts
    if len(cuts) != spec.K + 1 or (spec.kind == VORONOI and orders is None):
        raise ValueError(f"workspace must be a Workspace({L}, {N}, {spec.K}, {spec.kind!r})")
    y = paths.states
    dw = bw.increments
    diff, costs = problem.spec.diffusion, problem.spec.costs
    sigma_y_live, q_live, nodes, b_y = workspace.backward
    p, q, f, target = workspace.p_hat, workspace.q_hat, workspace.f, workspace.target
    u_values = control.values.tolist()
    p[:, N] = costs.g(y[:, N])

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N - 1, -1, -1):
            yn = y[:, n]
            # a hypercube workspace's one cells column stands in for the order
            cells_n = cells[:, 0 if orders is None else n]
            order = cells_n if orders is None else orders[:, n]
            counts = build_partition(yn, spec, cells_n, order, cuts[:, n]).counts

            p_next = p[:, n + 1]
            f_n = costs.h_y(nodes[n], yn)
            if b_y[n]:
                np.multiply(p_next, b_y[n], out=f)
                f_n = np.add(f_n, f, out=f)
            if q_live:
                np.multiply(dw[:, n], p_next, out=target)
                target /= dt
                regress(cells_n, target, counts, q[:, n])
                if sigma_y_live:
                    f_n = np.add(f_n, q[:, n] * diff.sigma_y(yn, u_values[n]), out=f)
            np.multiply(f_n, dt, out=f)
            np.add(p_next, f, out=target)
            regress(cells_n, target, counts, p[:, n])

    if not np.isfinite(p[:, 0]).all():
        bad = np.flatnonzero(~np.isfinite(p[:, :N]).all(axis=0))[-1]
        raise SimulationError(f"non-finite regression target at step {bad}")
    return BsdeSolution(grid=grid, p_hat=p.view(), q_hat=q.view())
