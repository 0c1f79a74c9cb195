"""Reference computations that only the tests use: Gauss-Legendre L2
projection and distance, the closed-form kernel for a constant coefficient,
the kernel integral identity, checks of a problem's bounds and derivatives,
the order fit of a report column, and the plain formulation of the backward
LSMC pass with the multiplier in its driver; plus a problem whose drift
coefficients all vary in time."""

import math
from functools import lru_cache

import numpy as np

from socproj.bench import RunReport
from socproj.gridfn import StepFunction, TimeFn, TimeGrid, nodal_sample, trapezoid
from socproj.lsmc import HYPERCUBE, VORONOI, Partition
from socproj.optimizer import solve_kernels
from socproj.problems import CostDerivatives, Diffusion, LinearDrift, ProblemSpec


def left_nodes(f: TimeFn, grid: TimeGrid) -> np.ndarray:
    """f at the left nodes t_0 .. t_{N-1}, the array form the kernels take."""
    return nodal_sample(f, grid).values


def time_varying_problem() -> ProblemSpec:
    """b_y = sin t, b_u = 1 + t, m = cos t, with state- and control-dependent
    noise, so that reading any coefficient at the wrong node changes every
    stage of an iteration."""
    return ProblemSpec(
        name="time-varying",
        drift=LinearDrift(b_y=math.sin, b_u=lambda t: 1.0 + t, m=math.cos),
        diffusion=Diffusion(
            sigma=lambda y, u: 0.1 * u + 0.2 * np.sqrt(1.0 + y * y),
            sigma_y=lambda y, u: 0.2 * y / np.sqrt(1.0 + y * y),
            sigma_u=lambda y, u: np.full_like(y, 0.1),
        ),
        costs=CostDerivatives(
            h_y=lambda t, y: y - (1.0 + t), j_u=lambda u: u, g=lambda y: 0.5 * y
        ),
        y0=0.5,
        T=1.0,
        delta=0.8,
    )


@lru_cache(maxsize=None)
def _gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


def l2_project(f: TimeFn, grid: TimeGrid, q: int = 5) -> StepFunction:
    """Interval averages of f computed with q-point Gauss-Legendre per interval."""
    if q < 2:
        raise ValueError(f"quadrature order must be >= 2, got {q}")
    x, w = _gauss_legendre(q)
    half = 0.5 * grid.dt
    values = np.empty(grid.N)
    for n in range(grid.N):
        mid = grid.nodes[n] + half
        fx = np.array([float(f(mid + half * xi)) for xi in x])
        values[n] = 0.5 * float(w @ fx)
    return StepFunction(grid, values)


def l2_dist_to_function(u: StepFunction, f: TimeFn, q: int = 5) -> float:
    """L2([0,T]) distance between a step function and a smooth function.

    Computed per interval with q-point Gauss-Legendre, so it is exact whenever
    (f - u)^2 is a polynomial of degree <= 2q-1 on each interval.
    """
    if q < 3:
        raise ValueError(f"quadrature order must be >= 3, got {q}")
    x, w = _gauss_legendre(q)
    grid = u.grid
    half = 0.5 * grid.dt
    acc = 0.0
    for n in range(grid.N):
        mid = grid.nodes[n] + half
        fx = np.array([float(f(mid + half * xi)) for xi in x])
        acc += half * float(w @ (fx - u.values[n]) ** 2)
    return float(np.sqrt(acc))


def analytic_psi_constant(c: float, T: float, t):
    """Closed form of the backward kernel for constant coefficient c.

    Returns (exp(c*(T-t)) - 1)/c, with the limit T - t at c = 0.  Accepts
    scalar or array t.
    """
    tau = np.asarray(T, dtype=float) - np.asarray(t, dtype=float)
    if abs(c) < 1e-14:
        out = tau
    else:
        out = np.expm1(c * tau) / c
    return float(out) if np.ndim(out) == 0 else out


def check_kernel_identity(grid: TimeGrid, b_y: TimeFn, b_u: TimeFn) -> float:
    """Residual |int (psi*b_u)^2 dt - int varphi_tilde dt| on the given grid.

    The two integrals agree in the continuum; with the discrete kernels and
    trapezoidal quadrature the residual decays at first order in dt.
    """
    psi, I_tilde = solve_kernels(grid, left_nodes(b_y, grid), left_nodes(b_u, grid))
    bu_nodes = np.array([float(b_u(t)) for t in grid.nodes])
    lhs = trapezoid((psi * bu_nodes) ** 2, grid)
    return abs(lhs - I_tilde)


def validate_drift(
    drift: LinearDrift, T: float, lower_bound: float, lip_bound: float, samples: int = 101
) -> None:
    """Check |b_u| >= lower_bound and |b_y| + |b_u| <= lip_bound on a uniform
    sample of [0, T]."""
    for t in np.linspace(0.0, T, samples):
        by, bu = abs(float(drift.b_y(t))), abs(float(drift.b_u(t)))
        if bu < lower_bound:
            raise ValueError(f"|b_u({t})| = {bu} below lower_bound")
        if by + bu > lip_bound + 1e-12:
            raise ValueError(f"|b_y|+|b_u| = {by + bu} exceeds lip_bound at t={t}")


def validate_diffusion(
    diffusion: Diffusion,
    bound: float,
    y_box: tuple[float, float] = (-5.0, 5.0),
    u_box: tuple[float, float] = (-5.0, 5.0),
    samples: int = 41,
) -> None:
    """Check |sigma_y| + |sigma_u| <= bound on a sampled box."""
    ys = np.linspace(*y_box, samples)
    for u in np.linspace(*u_box, samples):
        total = np.abs(diffusion.sigma_y(ys, float(u))) + np.abs(
            diffusion.sigma_u(ys, float(u))
        )
        if np.max(total) > bound + 1e-12:
            raise ValueError(
                f"|sigma_y|+|sigma_u| reaches {np.max(total)} > bound at u={u}"
            )


def linear_growth_bound(
    costs: CostDerivatives,
    T: float,
    y_box: tuple[float, float] = (-10.0, 10.0),
    samples: int = 201,
) -> float:
    """max of |h_y| / (1 + |y|) over a sampled (t, y) box; finite for
    derivatives with at most linear growth."""
    ys = np.linspace(*y_box, samples)
    worst = 0.0
    for t in np.linspace(0.0, T, 21):
        ratio = np.abs(costs.h_y(float(t), ys)) / (1.0 + np.abs(ys))
        worst = max(worst, float(np.max(ratio)))
    return worst


def finite_difference_mismatch(
    diffusion: Diffusion,
    ys: np.ndarray,
    us: np.ndarray,
    h: float = 1e-6,
) -> float:
    """Worst relative gap between declared sigma derivatives and centered
    differences of sigma over the given sample points."""
    worst = 0.0
    for u in np.atleast_1d(us):
        u = float(u)
        fd_y = (diffusion.sigma(ys + h, u) - diffusion.sigma(ys - h, u)) / (2 * h)
        fd_u = (diffusion.sigma(ys, u + h) - diffusion.sigma(ys, u - h)) / (2 * h)
        scale_y = np.maximum(np.abs(diffusion.sigma_y(ys, u)), 1.0)
        scale_u = np.maximum(np.abs(diffusion.sigma_u(ys, u)), 1.0)
        worst = max(
            worst,
            float(np.max(np.abs(fd_y - diffusion.sigma_y(ys, u)) / scale_y)),
            float(np.max(np.abs(fd_u - diffusion.sigma_u(ys, u)) / scale_u)),
        )
    return worst


def fit_order(report: RunReport, column: str = "control_error") -> float:
    """Least-squares slope of log error against log N, sign-normalized so a
    first-order column maps to ~1.0.  Needs at least three usable rows."""
    pts = [
        (row.N, getattr(row, column))
        for row in report.rows
        if getattr(row, column) is not None and getattr(row, column) > 0.0
    ]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 positive rows in {column!r}, have {len(pts)}")
    logn = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    slope = np.polyfit(logn, loge, 1)[0]
    return float(-slope)


# The backward pass of ``socproj.lsmc`` in its plain formulation: quantile
# centers from ``np.quantile``, cells from an unsorted ``searchsorted`` per
# regression, and a recursion that assigns the samples again for each of its
# two regressions and calls ``b_y`` at each t_n itself.


def reference_build_partition(samples, spec):
    samples = np.asarray(samples, dtype=float)
    k = spec.K
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        return Partition(kind=spec.kind, n_cells=1, lo=lo, hi=hi)
    if spec.kind == HYPERCUBE:
        return Partition(kind=HYPERCUBE, n_cells=k, lo=lo, hi=hi)
    qs = np.quantile(samples, np.arange(1, k + 1) / (k + 1))
    centers = np.unique(qs)
    if len(centers) == 1:
        return Partition(kind=VORONOI, n_cells=1, lo=lo, hi=hi)
    boundaries = 0.5 * (centers[:-1] + centers[1:])
    return Partition(
        kind=VORONOI, n_cells=len(centers), lo=lo, hi=hi, boundaries=boundaries
    )


def reference_regress(partition, x, z):
    idx = partition.assign(np.asarray(x, dtype=float))
    counts = np.bincount(idx, minlength=partition.n_cells)
    sums = np.bincount(idx, weights=z, minlength=partition.n_cells)
    coef = np.divide(sums, counts, out=np.zeros(partition.n_cells), where=counts > 0)
    return coef, coef[idx]


def reference_backward(paths, bw, problem, control, spec, mu=0.0, psi=None):
    """(p, q) of the recursion in ``socproj.lsmc``.

    Given ``psi``, the driver carries the multiplier, f = f_hat + mu, and the
    Q-target drops the deterministic mu*psi_{n+1} part of p_{n+1}, whose
    product with dW has conditional mean exactly zero; on the same samples
    the result is then P = P_hat + mu*psi, Q = Q_hat up to roundoff.
    """
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    y, dw = paths.states, bw.increments
    drift, diff, costs = problem.drift, problem.diffusion, problem.costs
    p = np.empty((L, N + 1))
    q = np.empty((L, N))
    p[:, N] = costs.g(y[:, N])
    for n in range(N - 1, -1, -1):
        yn = y[:, n]
        tn = float(grid.nodes[n])
        un = float(control.values[n])
        part = reference_build_partition(yn, spec)
        p_next = p[:, n + 1]
        if psi is None:
            target_q = dw[:, n] * p_next / dt
        else:
            target_q = dw[:, n] * (p_next - mu * psi[n + 1]) / dt
        _, q_fit = reference_regress(part, yn, target_q)
        f = (
            costs.h_y(tn, yn)
            + p_next * float(drift.b_y(tn))
            + q_fit * diff.sigma_y(yn, un)
            + mu
        )
        _, p_fit = reference_regress(part, yn, p_next + f * dt)
        p[:, n] = p_fit
        q[:, n] = q_fit
    return p, q
