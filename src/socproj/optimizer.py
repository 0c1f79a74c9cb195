"""The fully discrete gradient projection iteration.

Each iteration, on one fixed Brownian ensemble:

1. simulate the state under the current control u;
2. solve the multiplier-free adjoint by backward LSMC;
3. assemble the cost gradient and take the half step u_half = u - rho_i * grad;
4. re-simulate under u_half and integrate the mean state (I_hat, trapezoid);
5. compute the multiplier mu = max(I_hat - delta, 0) / (rho_i * I_tilde),
   where I_tilde integrates the forward response kernel;
6. update u = u_half - rho_i * mu * psi_n * b_u(t_n) per interval;
7. stop when the sup-norm control change falls below eps0.

A non-finite control, or a step that grows in DIVERGENCE_STREAK consecutive
iterations, stops the solve with ``SimulationError("diverged at ...")``.

The multiplier and the projection read two deterministic kernels of the
left-node drift coefficients, computed here: the backward kernel psi
(``solve_psi``) and the forward response kernel varphi_tilde
(``solve_varphi_tilde``), whose trapezoidal integral I_tilde normalizes the
multiplier.  The coefficients are sampled once per solve
(``problems.discretize``), and ``solve_kernels`` turns them into psi and
I_tilde once before the loop.  Every pass writes into one
``lsmc.Workspace``, and with mu = 0 step 1 of the next iteration is skipped:
u equals u_half, whose states the workspace holds.  The multiplier step
makes the freshly updated control's mean-state integral equal
min(I_hat, delta) on the shared ensemble; with per-step-normalized increments
this restoration is exact in floating point whenever sigma_y = 0, which the
solve checks at its end.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gridfn import StepFunction, TimeGrid, linf_dist, trapezoid
from .lsmc import BasisSpec, BsdeSolution, Workspace, solve_bsde_hat
from .paths import (
    PathEnsemble,
    SimulationError,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
from .problems import GridProblem, ProblemSpec, discretize

__all__ = [
    "IterationState",
    "SolveConfig",
    "SolveResult",
    "compute_multiplier",
    "gradient",
    "project_update",
    "solve",
    "solve_kernels",
    "solve_psi",
    "solve_varphi_tilde",
]

RHO_CONSTANT = "constant"
RHO_HARMONIC = "harmonic"

# No shipped config's control step ever grows; a too-large rho's always does.
DIVERGENCE_STREAK = 5

# Bound on an exact restoration's residual, relative to the magnitude of the
# integrals, max(1, |delta|, |I_hat|): the shipped configs' largest residual
# is about 2e-16, and a diverging solve's rounding grows with I_hat.
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    """Knobs of one solve: step size and schedule, stopping, sampling, basis."""

    rho: float
    eps0: float
    L: int
    basis: BasisSpec
    seed: int
    rho_schedule: str = RHO_CONSTANT
    max_iters: int = 500
    normalize_increments: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0.0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.rho_schedule not in (RHO_CONSTANT, RHO_HARMONIC):
            raise ValueError(f"unknown rho schedule {self.rho_schedule!r}")

    def rho_at(self, i: int) -> float:
        """Step size of iteration i (1-based)."""
        return self.rho if self.rho_schedule == RHO_CONSTANT else self.rho / i


@dataclass(frozen=True, eq=False)
class IterationState:
    """Snapshot of one iteration: the updated control and its scalars."""

    i: int
    u: StepFunction
    mu: float
    I_hat: float
    error: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one solve; ``state_integral`` is the mean-state integral of
    ``u_final`` on the solve's own ensemble, and ``feasibility_residual`` its
    distance from min(I_hat, delta) of the last iteration.  ``setup_time`` is
    the part of ``wall_time`` spent before the first iteration: the ensemble
    (no draw when the workspace already held it), the discretized problem and
    the kernels."""

    u_final: StepFunction
    mu_final: float
    iterations: int
    history: list[IterationState]
    converged: bool
    wall_time: float
    setup_time: float
    state_integral: float
    feasibility_residual: float


def gradient(
    control: StepFunction,
    paths: PathEnsemble,
    adj: BsdeSolution,
    problem: GridProblem,
) -> StepFunction:
    """Monte Carlo cost gradient, one value per control interval:

    grad_n = mean_l[ P_hat_n(y_l) b_u[n] + Q_hat_n(y_l) sigma_u(y_l, u_n) ]
             + j_u(u_n).

    A ``ZERO`` sigma_u (``problem.sigma_u_live`` is False) drops the Q-term:
    neither sigma_u nor q_hat is read.  Any other callback, even one
    returning zeros, is evaluated on every interval.  Paths or an adjoint
    that a later pass through their workspace overwrote raise ValueError.
    """
    grid = control.grid
    if not (paths.grid == adj.grid == problem.grid == grid):
        raise ValueError("control, paths, adjoint and problem must share one grid")
    paths._check_current()
    adj._check_current()
    diff, costs = problem.spec.diffusion, problem.spec.costs
    mean_p = adj.p_hat[:, : grid.N].mean(axis=0).tolist()
    b_u, u_values = problem.b_u.tolist(), control.values.tolist()
    vals = np.empty(grid.N)
    # One L-buffer for every interval's Q-term; its mean is np.mean's
    # np.add.reduce(q_term) / L.
    q_term = np.empty(paths.L) if problem.sigma_u_live else None
    for n in range(grid.N):
        un = u_values[n]
        grad_n = mean_p[n] * b_u[n]
        if problem.sigma_u_live:
            np.multiply(adj.q_hat[:, n], diff.sigma_u(paths.states[:, n], un), out=q_term)
            grad_n += float(np.add.reduce(q_term) / paths.L)
        vals[n] = grad_n + costs.j_u(un)
    return StepFunction(grid, vals)


def _values(values: np.ndarray, n: int, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} must have {n} values, got shape {values.shape}")
    return values


def solve_psi(grid: TimeGrid, b_y: np.ndarray) -> np.ndarray:
    """Backward kernel psi_N = 0,

    psi_n = psi_{n+1} + (1 + psi_{n+1} * b_y[n]) * dt,

    with the coefficient b_y[n] = b_y(t_n) deliberately taken at the *left*
    node t_n: this is what keeps the discrete adjoint shift identity
    p = p_hat + mu * psi exact."""
    b_y = _values(b_y, grid.N, "b_y")
    dt = grid.dt
    psi = np.zeros(grid.N + 1)
    for n in range(grid.N - 1, -1, -1):
        psi[n] = psi[n + 1] + (1.0 + psi[n + 1] * b_y[n]) * dt
    return psi


def solve_varphi_tilde(
    grid: TimeGrid, b_y: np.ndarray, b_u: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Forward response kernel, the mean state's response to a unit
    multiplier push, by forward Euler from varphi_tilde_0 = 0:

    varphi_tilde_{n+1} = varphi_tilde_n
                         + (b_y[n] * varphi_tilde_n + b_u[n]^2 * psi_n) * dt,

    with the coefficients at the left node t_n, where the Euler pass reads
    them: so I_tilde is the discrete mean-state integral's exact response to
    the projection, which makes the restoration onto delta exact."""
    b_y, b_u = _values(b_y, grid.N, "b_y"), _values(b_u, grid.N, "b_u")
    psi = _values(psi, grid.N + 1, "psi")
    dt = grid.dt
    v = np.zeros(grid.N + 1)
    for n in range(grid.N):
        v[n + 1] = v[n] + (b_y[n] * v[n] + b_u[n] ** 2 * psi[n]) * dt
    return v


def solve_kernels(
    grid: TimeGrid, b_y: np.ndarray, b_u: np.ndarray
) -> tuple[np.ndarray, float]:
    """(psi, I_tilde): the backward kernel and the trapezoidal integral of
    the forward response kernel, the multiplier's denominator."""
    psi = solve_psi(grid, b_y)
    return psi, trapezoid(solve_varphi_tilde(grid, b_y, b_u, psi), grid)


def compute_multiplier(I_hat: float, delta: float, I_tilde: float, rho_i: float) -> float:
    """Explicit multiplier max(I_hat - delta, 0) / (rho_i * I_tilde)."""
    if rho_i <= 0.0:
        raise ValueError("rho_i must be positive")
    if I_tilde <= 0.0:
        raise ValueError(
            "response-kernel integral is nonpositive; b_u vanishes on the grid"
        )
    return max(I_hat - delta, 0.0) / (rho_i * I_tilde)


def project_update(
    u_half: StepFunction,
    mu: float,
    psi: np.ndarray,
    b_u: np.ndarray,
    rho_i: float,
) -> StepFunction:
    """Projection step u_n = u_half_n - rho_i * mu * psi_n * b_u[n]."""
    grid = u_half.grid
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (grid.N + 1,):
        raise ValueError("psi must carry one value per grid node")
    b_u = _values(b_u, grid.N, "b_u")
    return StepFunction(grid, u_half.values - rho_i * mu * psi[:-1] * b_u)


def solve(
    problem: ProblemSpec,
    config: SolveConfig,
    u0: StepFunction,
    workspace: Optional[Workspace] = None,
) -> SolveResult:
    """Run the projection iteration from u0 until the sup-norm step change
    falls below eps0 or max_iters is reached (reported, not raised).

    Every pass writes into ``workspace``, a ``Workspace(L, N')`` with
    N' >= N that earlier solves of any problem and basis may have used (the
    result is the same bit for bit), or into a new one.  When mu = 0 the
    updated control is u_half to the byte, so the next pass under it is
    skipped: the workspace already holds its states.

    The ensemble, fixed by (seed, L, grid, normalize_increments), is the one
    the workspace holds for those four, or a new draw.  With sigma_y = ``ZERO``
    and normalized increments, a final feasibility residual above
    FEASIBILITY_TOL * max(1, |delta|, |I_hat|) raises ``SimulationError``."""
    grid = u0.grid
    ws = Workspace(config.L, grid.N) if workspace is None else workspace
    ws.check_size(config.L, grid.N)
    start = time.perf_counter()
    key = (config.seed, config.L, grid, config.normalize_increments)
    bw = ws.ensemble(key, functools.partial(gen_brownian, *key))
    gp = discretize(problem, grid)
    psi, I_tilde = solve_kernels(grid, gp.b_y, gp.b_u)
    setup_time = time.perf_counter() - start

    u = u0
    mu = 0.0
    history: list[IterationState] = []
    converged = False
    iterations = grew = 0
    ens = None  # the states under u, when the workspace still holds them
    for i in range(1, config.max_iters + 1):
        iterations = i
        rho_i = config.rho_at(i)
        if ens is None:
            ens = euler_simulate(gp, u, bw, ws)
        adj = solve_bsde_hat(ens, bw, gp, u, config.basis, ws)
        grad = gradient(u, ens, adj, gp)
        u_half = StepFunction(grid, u.values - rho_i * grad.values)
        if not np.isfinite(u_half.values).all():
            raise SimulationError(f"diverged at iteration {i}: non-finite control")
        ens = euler_simulate(gp, u_half, bw, ws)
        I_hat = mean_state_integral(ens)
        mu = compute_multiplier(I_hat, problem.delta, I_tilde, rho_i)
        u_new = project_update(u_half, mu, psi, gp.b_u, rho_i)
        if not np.isfinite(u_new.values).all():
            raise SimulationError(f"diverged at iteration {i}: non-finite control")
        if u_new.values.tobytes() != u_half.values.tobytes():
            ens = None
        error = linf_dist(u_new, u)
        grew = grew + 1 if history and error > history[-1].error else 0
        if grew == DIVERGENCE_STREAK:
            why = f"control step {error:.4g} after {grew} consecutive rises"
            raise SimulationError(f"diverged at iteration {i}: {why}")
        history.append(
            IterationState(i=i, u=u_new, mu=mu, I_hat=I_hat, error=error)
        )
        u = u_new
        if error <= config.eps0:
            converged = True
            break

    if ens is None:
        ens = euler_simulate(gp, u, bw, ws)
    state_integral = mean_state_integral(ens)
    I_hat = history[-1].I_hat
    residual = abs(state_integral - min(I_hat, problem.delta))
    bound = FEASIBILITY_TOL * max(1.0, abs(problem.delta), abs(I_hat))
    exact = not gp.sigma_y_live and config.normalize_increments and config.L >= 2
    if exact and not residual <= bound:
        why = f"feasibility residual {residual:.3g} exceeds {bound:.3g}"
        raise SimulationError(f"{why} after iteration {iterations}")
    return SolveResult(
        u_final=u,
        mu_final=mu,
        iterations=iterations,
        history=history,
        converged=converged,
        wall_time=time.perf_counter() - start,
        setup_time=setup_time,
        state_integral=state_integral,
        feasibility_residual=residual,
    )
