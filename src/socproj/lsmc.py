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
unique centers, and tied ones are sorted and keep the first of each run of
equal values: the float64 path of ``np.unique`` without its masked-array
check, which imports ``numpy.ma``.  Every sample's cell comes from rank cuts
in that sorted column.  The cell array is the only link between partition
and regression: ``build_partition`` fills one per step, with the per-cell
counts, and ``regress`` takes both for the P- and the Q-regression of that
step.  A ``Workspace``, which serves every problem, basis and K, carries
each step's sort order and cells from one backward pass to the next on the
same ensemble, and the step's last rank cuts by reference.
The carried order still sorts samples that kept their ranks (every warm step
of example1); else a stable argsort of the gathered column completes it,
cheaper than a fresh sort when few paths swap (most warm steps of example2).
When the order needed no repair and the new cuts equal the carried ones, the
carried cells are exactly what the step would write, and the step keeps
them.  A step's order and cells count as carried only with the cuts of its
last partition; a hypercube step sorts nothing and leaves no cuts.

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid
from .paths import BrownianEnsemble, PathEnsemble, SimulationError
from .problems import GridProblem

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
    cell.  A built partition also carries its samples' per-cell ``counts``,
    and a built Voronoi partition its read-only rank ``cuts``: cell c holds
    the sorted ranks cuts[c] .. cuts[c+1]-1.
    """

    kind: str
    n_cells: int
    lo: float = math.nan
    hi: float = math.nan
    boundaries: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    cuts: Optional[np.ndarray] = None

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
    """The arrays the passes of a solve write, allocated once for L paths and
    up to N steps, whatever the basis: one forward ``states`` array (the
    states under u are dead once the gradient is taken, so the pass under
    u_half overwrites them), ``p_hat`` and ``q_hat`` (all zeros while no
    Q-regression writes it) and the backward scratch column ``f``; each
    step builds its Q and P targets in the columns of ``q_hat`` and
    ``p_hat`` that their fits then overwrite.  A pass on n <= N steps uses
    the leading columns of each.

    It holds one ensemble and keeps only what depends on it: ``noise(c)``,
    and per step n the sort order and cells of the step's last partition,
    as column-major intp arrays, and the rank cuts of its last Voronoi
    partition, by reference in a per-step list.  A step's order and cells
    are carried exactly when its cuts entry is not None; a hypercube step
    stores None there.  The carry checks itself (see ``build_partition``),
    so the passes of every problem, basis and K on the held ensemble share
    it.  A pass on another ensemble (``serve``) holds that one instead and
    drops the noise and the cuts, so a used workspace gives what a fresh
    one gives, bit for bit; no order column is written before a Voronoi
    pass.  A pass returns read-only views of its arrays, overwritten by the
    next pass that writes them.  The workspace counts the Euler passes and
    the backward passes; the ``PathEnsemble`` or ``BsdeSolution`` a pass
    returns keeps its count, and the stages that read one raise once a
    later pass has overwritten it.

    Between solves it holds the last ensemble a solve drew through
    ``ensemble``, so consecutive solves that need the same one share it,
    and what was kept for it.
    """

    def __init__(self, L: int, N: int):
        self._orders = np.empty((L, N), dtype=np.intp, order="F")
        self._cells = np.empty((L, N), dtype=np.intp, order="F")
        self.states = np.empty((L, N + 1), order="F")
        self.p_hat = np.empty((L, N + 1), order="F")
        self.q_hat = np.zeros((L, N), order="F")
        self.f = np.empty(L)
        self._q_written = False
        self._state_passes = self._adjoint_passes = 0
        self._hold()

    def _hold(self, key: Optional[tuple] = None, bw: Optional[BrownianEnsemble] = None) -> None:
        """Hold ``bw`` for ``key`` (None for an ensemble a pass brought in),
        or nothing, with nothing kept for it."""
        self._held = None if bw is None else (key, bw)
        self._noise: Optional[tuple[str, np.ndarray]] = None
        self._cuts: list[Optional[np.ndarray]] = [None] * self._orders.shape[1]

    def ensemble(self, key: tuple, draw: Callable[[], BrownianEnsemble]) -> BrownianEnsemble:
        """The held ensemble if it was drawn for ``key``; else drop it, so
        two ensembles are never alive at once, and hold ``draw()`` for
        ``key``.  The ensemble is read-only, so sharing it is safe."""
        if self._held is None or self._held[0] != key:
            self._hold()
            self._hold(key, draw())
        return self._held[1]

    def check_size(self, L: int, N: int) -> None:
        """Raise unless the workspace holds L paths of N or more steps."""
        rows, cols = self.states.shape
        if L != rows or N >= cols:
            raise ValueError(f"workspace holds {rows} paths of up to {cols - 1} steps")

    def serve(self, bw: BrownianEnsemble) -> None:
        """Serve a pass on ``bw``: hold it, unless it is the held ensemble."""
        self.check_size(bw.L, bw.grid.N)
        if self._held is None or self._held[1] is not bw:
            self._hold(None, bw)

    def noise(self, c: float) -> np.ndarray:
        """c dW of the held ensemble, made once per value of c."""
        bits = c.hex()  # -0.0 dW and 0.0 dW differ
        if self._noise is None or self._noise[0] != bits:
            self._noise = None  # never two noise arrays at once
            with np.errstate(over="ignore"):
                self._noise = (bits, np.multiply(c, self._held[1].increments))
        return self._noise[1]


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
    cuts: Optional[np.ndarray] = None,
) -> Partition:
    """Build the step's partition of ``spec.K`` cells from the sampled states
    and fill ``cells`` (intp, len(samples)) with ``part.assign(samples)``.

    A Voronoi step reads both from the sorted samples and leaves the sorting
    permutation in ``order`` (intp, len(samples)); a hypercube step sorts
    nothing and leaves ``order`` alone.  ``cuts`` is the ``Partition.cuts``
    of the previous call on the same ``cells`` and ``order``, if that call
    built a Voronoi partition: only then are the two carried, and callers
    never edit them in between (unchecked, as a check would cost what the
    carry saves).  Without ``cuts`` whatever ``order`` holds is ignored.
    When the carried order still sorts the samples and the cuts come out as
    carried, ``cells`` already holds the step's cells and is left as it is.
    Tied centers merge as ``np.unique`` merges them, -0.0 with 0.0; its NaN
    handling is moot, since every Euler pass rejects non-finite states.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if len(cells) != len(samples) or len(order) != len(samples):
        raise ValueError("cells and order need one entry per sample")
    if spec.kind == VORONOI:
        return _voronoi_partition(samples, spec.K, cells, order, cuts)
    lo, hi = float(samples.min()), float(samples.max())
    n_cells = 1 if hi == lo else spec.K
    # One partition per step: its counts are filled in from its cells.
    counts = np.empty(n_cells, dtype=np.intp)
    part = Partition(HYPERCUBE, n_cells, lo, hi, counts=counts)
    part.assign(samples, out=cells)
    counts[:] = len(samples) if n_cells == 1 else np.bincount(cells, minlength=n_cells)
    return part


def _voronoi_partition(
    samples: np.ndarray, k: int, cells: np.ndarray, order: np.ndarray, cuts: Optional[np.ndarray]
) -> Partition:
    """Cells around the k quantiles, all read from the sorted samples."""
    carried = cuts is not None
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
    # Strictly increasing quantiles are their own sorted unique values; tied
    # ones keep the first of each run of equals after a sort: np.unique's
    # float64 path, without the np.ma check that imports numpy.ma.
    if not (centers[:-1] < centers[1:]).all():
        centers = np.sort(centers)
        centers = centers[np.concatenate(([True], centers[1:] != centers[:-1]))]
    n_cells = len(centers)
    boundaries = np.add(centers[:-1], centers[1:])
    boundaries *= 0.5
    # A sample's cell is the number of boundaries below it.
    new = np.empty(n_cells + 1, dtype=np.intp)
    new[0], new[-1] = 0, len(ordered)
    new[1:-1] = ordered.searchsorted(boundaries, side="right")
    new.setflags(write=False)
    counts = new[1:] - new[:-1]
    # Two intp arrays are equal when their bytes are.
    if not (carried and new.tobytes() == cuts.tobytes()):
        cells[order] = ids[:n_cells].repeat(counts)
    lo, hi = float(ordered[0]), float(ordered[-1])
    return Partition(VORONOI, n_cells, lo, hi, boundaries if n_cells > 1 else None, counts, new)


def regress(
    cells: np.ndarray, z: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of z grouped by ``cells`` (as filled in by
    ``build_partition``, each in 0 .. len(counts)-1, cell c holding
    ``counts[c]`` samples).  Writes the fitted values into ``out`` (float,
    len(z)), which may be z itself: z is read in full before ``out`` is
    written.  Returns (coefficients, out); empty cells get coefficient 0.
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
    both ``ZERO``).  A solution that a pass wrote into a workspace keeps the
    workspace and its backward pass count, as a ``PathEnsemble`` keeps its
    Euler pass count."""

    grid: TimeGrid
    p_hat: np.ndarray
    q_hat: np.ndarray
    _stamp: Optional[tuple[Workspace, int]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.p_hat.setflags(write=False)
        self.q_hat.setflags(write=False)

    def _check_current(self) -> None:
        """Raise if a later backward pass through its workspace overwrote it."""
        if self._stamp is not None and self._stamp[0]._adjoint_passes != self._stamp[1]:
            raise ValueError("stale BsdeSolution: the workspace's next backward pass overwrote it")


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

    A ``ZERO`` sigma_y (``problem.sigma_y_live`` is False) drops the q-term
    of f_hat; with sigma_u ``ZERO`` too, no Q-regression runs and q_hat is
    all zeros.  Only a ``constant(0.0)`` counts: any other callback keeps
    the full path.
    A step with b_y[n] = 0.0 of either sign drops the signed zero p b_y[n]
    (see the module docstring).

    The pass writes p_hat and q_hat into ``workspace``, which its next
    backward pass overwrites, and reuses the partitions that earlier passes
    on the same ensemble carried there, whatever their problem; without one
    it runs in a fresh ``Workspace(L, N)``.  Paths that a later Euler pass
    through their workspace overwrote raise ValueError.
    A non-finite target spreads through p_{n+1} to every earlier fit, so one
    check after the pass finds it, and the highest non-finite fit names it.
    """
    if not (paths.grid == bw.grid == control.grid == problem.grid):
        raise ValueError("paths, increments, control and problem must share one grid")
    if paths.L != bw.L:
        raise ValueError("paths and increments must share the path count")
    paths._check_current()
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    fresh = workspace is None
    if fresh:
        workspace = Workspace(L, N)
    workspace.serve(bw)
    workspace._adjoint_passes += 1
    q_live = problem.sigma_y_live or problem.sigma_u_live
    if workspace._q_written and not q_live:
        workspace.q_hat.fill(0.0)  # an earlier pass's Q-regression wrote it
    workspace._q_written = q_live
    orders, cells, cuts = workspace._orders, workspace._cells, workspace._cuts
    y = paths.states
    dw = bw.increments
    diff, costs = problem.spec.diffusion, problem.spec.costs
    nodes, b_y = grid.nodes.tolist(), problem.b_y.tolist()
    p, q, f = workspace.p_hat[:, : N + 1], workspace.q_hat[:, :N], workspace.f
    u_values = control.values.tolist()
    p[:, N] = costs.g(y[:, N])

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N - 1, -1, -1):
            yn, cells_n = y[:, n], cells[:, n]
            # a step that raises leaves no cuts, so nothing half-written is carried
            carried, cuts[n] = cuts[n], None
            part = build_partition(yn, spec, cells_n, orders[:, n], carried)
            cuts[n], counts = part.cuts, part.counts

            p_next = p[:, n + 1]
            f_n = costs.h_y(nodes[n], yn)
            if b_y[n]:
                np.multiply(p_next, b_y[n], out=f)
                f_n = np.add(f_n, f, out=f)
            if q_live:
                q_n = q[:, n]
                np.multiply(dw[:, n], p_next, out=q_n)
                q_n /= dt
                regress(cells_n, q_n, counts, q_n)
                if problem.sigma_y_live:
                    f_n = np.add(f_n, q_n * diff.sigma_y(yn, u_values[n]), out=f)
            np.multiply(f_n, dt, out=f)
            p_n = p[:, n]
            np.add(p_next, f, out=p_n)
            regress(cells_n, p_n, counts, p_n)

    if not np.isfinite(p[:, 0]).all():
        bad = np.flatnonzero(~np.isfinite(p[:, :N]).all(axis=0))[-1]
        raise SimulationError(f"non-finite regression target at step {bad}")
    stamp = None if fresh else (workspace, workspace._adjoint_passes)
    return BsdeSolution(grid=grid, p_hat=p, q_hat=q, _stamp=stamp)
