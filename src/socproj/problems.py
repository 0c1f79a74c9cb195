"""Problem specifications: linear-in-state dynamics, tracking costs, constraint.

A problem couples
  dy_t = (b_y(t) y_t + b_u(t) u(t) + m(t)) dt + sigma(y_t, u(t)) dW_t,
an expected-integral state constraint  int_0^T E[y_t] dt <= delta,  and a cost
whose derivatives (h_y, j_u, g) are all the solver ever needs.

Function-field conventions:
  * time coefficients (b_y, b_u, m) map a scalar t to a float; the solver
    reads them only through ``discretize``, once per grid;
  * state functions (sigma, sigma_y, sigma_u, h_y, g) are vectorized over a
    path-batch ndarray of states, with the control value passed as a scalar;
  * ``ZERO`` as sigma_y or sigma_u declares that derivative identically zero,
    and the solver skips the adjoint work it would only multiply by zero
    (``vanishes``); any other callback, even one that returns zeros, keeps
    the full path;
  * ``constant(c)`` as sigma declares a constant diffusion, and the solver
    takes the noise term c dW from one array filled once per solve
    (``constant_value``) instead of calling sigma on every step;
  * the tracking target may depend on time, so h_y has signature h_y(t, y).

Three built-in benchmark problems are provided under the identifiers
"example1" (decoupled d-dimensional tracking with constant noise and a known
polynomial optimum), "example2" (scalar tracking with control-proportional
noise and a known rational optimum), and "example3" (state-dependent noise,
no closed-form control; the reference multiplier is known for the constraint
level where the constraint is exactly active).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from math import log1p
from typing import Callable, Optional

import numpy as np

from .gridfn import TimeFn, TimeGrid, nodal_sample

__all__ = [
    "EXAMPLE2_DELTA",
    "EXAMPLE2_MU_STAR",
    "EXAMPLE3_DELTA_ACTIVE",
    "ZERO",
    "CostDerivatives",
    "Diffusion",
    "ExactSolution",
    "GridProblem",
    "LinearDrift",
    "ProblemSpec",
    "VectorProblem",
    "constant",
    "discretize",
    "example1",
    "example2",
    "example3",
    "vanishes",
]

StateFn = Callable[[np.ndarray, float], np.ndarray]

#: Constraint level at which example2's constraint is active at the optimum.
EXAMPLE2_DELTA = 0.16543
#: Exact multiplier of example2.
EXAMPLE2_MU_STAR = 0.2
#: Constraint level at which example3's constraint is exactly active, i.e.
#: the integral of the unconstrained reference state.
EXAMPLE3_DELTA_ACTIVE = 1.34150


@dataclass(frozen=True)
class LinearDrift:
    """Coefficients of the linear drift b(t, y, u) = b_y(t) y + b_u(t) u + m(t).

    b_u must not vanish on the grid: the multiplier step divides by the
    response-kernel integral, and a solve rejects one that is not positive.
    """

    b_y: TimeFn
    b_u: TimeFn
    m: TimeFn


@dataclass(frozen=True)
class Diffusion:
    """Diffusion coefficient and its state/control derivatives.

    A derivative that is identically zero is declared by passing ``ZERO``
    itself (or a ``functools.wraps`` wrapper of it); the solver then skips
    the products with it, and with both derivatives ``ZERO`` it skips the
    Q-regression.  A custom callback, even one that returns zeros, keeps
    the full path.  Likewise a ``constant(c)`` sigma is never called per
    step: its noise term c dW is one array per solve.
    """

    sigma: StateFn
    sigma_y: StateFn
    sigma_u: StateFn


@dataclass(frozen=True)
class CostDerivatives:
    """Cost derivatives: running state part h_y(t, y), control part j_u(u),
    and terminal part g(y)."""

    h_y: Callable[[float, np.ndarray], np.ndarray]
    j_u: Callable[[float], float]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ExactSolution:
    """Reference optimum for error measurement; either field may be absent."""

    u_star: Optional[TimeFn] = None
    mu_star: Optional[float] = None


@dataclass(frozen=True)
class ProblemSpec:
    """A scalar constrained control problem, ready for the solver."""

    name: str
    drift: LinearDrift
    diffusion: Diffusion
    costs: CostDerivatives
    y0: float
    T: float
    delta: float
    exact: Optional[ExactSolution] = None

    def __post_init__(self) -> None:
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")


@dataclass(frozen=True)
class VectorProblem:
    """A family of mutually independent scalar problems solved componentwise."""

    components: tuple[ProblemSpec, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise ValueError("need at least one component")


@dataclass(frozen=True, eq=False)
class GridProblem:
    """``spec`` on one grid, with its drift coefficients at the left nodes
    t_0 .. t_{N-1} as read-only arrays of length N."""

    spec: ProblemSpec
    grid: TimeGrid
    b_y: np.ndarray
    b_u: np.ndarray
    m: np.ndarray


def discretize(problem: ProblemSpec, grid: TimeGrid) -> GridProblem:
    """Sample the drift coefficients of ``problem`` at the left nodes of ``grid``."""
    drift = problem.drift
    b_y, b_u, m = (nodal_sample(f, grid).values for f in (drift.b_y, drift.b_u, drift.m))
    return GridProblem(spec=problem, grid=grid, b_y=b_y, b_u=b_u, m=m)


def ZERO(y: np.ndarray, u: float) -> np.ndarray:
    """The identically zero ``Diffusion`` derivative, recognized by ``vanishes``."""
    return np.zeros_like(y, dtype=float)


def vanishes(fn: StateFn) -> bool:
    """Whether ``fn`` is ``ZERO``, seen through ``functools.wraps`` wrappers."""
    return inspect.unwrap(fn) is ZERO


class _Constant:
    """A state function equal to one value everywhere (see ``constant``)."""

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, y: np.ndarray, u: float) -> np.ndarray:
        return np.full_like(y, self.value, dtype=float)


def constant(value: float) -> StateFn:
    """The state function equal to ``value`` everywhere, recognized by
    ``constant_value``: as ``Diffusion.sigma`` it is never called per step."""
    return _Constant(value)


def constant_value(fn: StateFn) -> Optional[float]:
    """The value of a ``constant`` state function, seen through
    ``functools.wraps`` wrappers; None for any other callable."""
    fn = inspect.unwrap(fn)
    return fn.value if isinstance(fn, _Constant) else None


def _zero_terminal(y: np.ndarray) -> np.ndarray:
    return np.zeros_like(y, dtype=float)


def _identity(u: float) -> float:
    return u


def example1(d: int, mu: float, alpha: float, T: float = 1.0) -> VectorProblem:
    """Decoupled d-dimensional tracking problem with constant diffusion.

    Component n (1-based) tracks a cubic target and has the closed-form
    optimum u*_n(t) = (T^2 - t^2)/n with multiplier mu/n and constraint level
    delta_n = 5 T^4 / (12 n).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if mu < 0.0:
        raise ValueError("multiplier constant must be nonnegative")

    def target(t: float) -> float:
        return -(t**3) / 3.0 + (T * T + 2.0) * t + mu

    components = []
    for n in range(1, d + 1):
        def h_y(t: float, y: np.ndarray, _n: int = n) -> np.ndarray:
            return y - target(t) / _n

        def u_star(t: float, _n: int = n) -> float:
            return (T * T - t * t) / _n

        components.append(
            ProblemSpec(
                name=f"example1[{n}]",
                drift=LinearDrift(
                    b_y=lambda t: 0.0,
                    b_u=lambda t: 1.0,
                    m=lambda t: 0.0,
                ),
                diffusion=Diffusion(
                    sigma=constant(alpha),
                    sigma_y=ZERO,
                    sigma_u=ZERO,
                ),
                costs=CostDerivatives(h_y=h_y, j_u=_identity, g=_zero_terminal),
                y0=0.0,
                T=T,
                delta=5.0 * T**4 / (12.0 * n),
                exact=ExactSolution(u_star=u_star, mu_star=mu / n),
            )
        )
    return VectorProblem(components=tuple(components))


def example2(alpha: float, T: float = 1.0) -> ProblemSpec:
    """Scalar tracking problem with control-proportional diffusion alpha*u.

    The optimum is u*(t) = (T-t)/(alpha^2 (T-t) + 1) with multiplier 0.2; the
    tracking target is built so the constraint is active exactly at the
    reported level delta = 0.16543.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    a = alpha * alpha

    def u_star(t: float) -> float:
        return (T - t) / (a * (T - t) + 1.0)

    def r(t: float) -> float:
        return 0.5 * u_star(t)

    def mean_state(t: float) -> float:
        # int_0^t u*/2 ds in closed form; log1p keeps the near-cancellation
        # of the two logarithms at small alpha full-precision.
        return 0.5 * (t - (log1p(a * T) - log1p(a * (T - t))) / a) / a

    def h_y(t: float, y: np.ndarray) -> np.ndarray:
        return y - (mean_state(t) + 1.0 + EXAMPLE2_MU_STAR)

    return ProblemSpec(
        name="example2",
        drift=LinearDrift(
            b_y=lambda t: 0.0,
            b_u=lambda t: 1.0,
            m=lambda t: -r(t),
        ),
        diffusion=Diffusion(
            sigma=lambda y, u, _a=alpha: np.full_like(y, _a * u, dtype=float),
            sigma_y=ZERO,
            sigma_u=lambda y, u, _a=alpha: np.full_like(y, _a, dtype=float),
        ),
        costs=CostDerivatives(h_y=h_y, j_u=_identity, g=_zero_terminal),
        y0=0.0,
        T=T,
        delta=EXAMPLE2_DELTA,
        exact=ExactSolution(u_star=u_star, mu_star=EXAMPLE2_MU_STAR),
    )


def example3(
    alpha: float, delta: float = EXAMPLE3_DELTA_ACTIVE, mu_star: float = 1.0, T: float = 1.0
) -> ProblemSpec:
    """Tracking problem with state-dependent diffusion alpha*sqrt(1+y^2).

    There is no closed-form optimal control.  The tracking target is shifted
    by mu_star so that at delta = EXAMPLE3_DELTA_ACTIVE the constrained
    optimum coincides with the unconstrained reference and the multiplier
    equals mu_star exactly; for other delta only feasibility is checkable.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")

    def h_y(t: float, y: np.ndarray) -> np.ndarray:
        return y - (1.0 + mu_star)

    exact = None
    if abs(delta - EXAMPLE3_DELTA_ACTIVE) < 1e-9:
        exact = ExactSolution(u_star=None, mu_star=mu_star)

    return ProblemSpec(
        name="example3",
        drift=LinearDrift(
            b_y=lambda t: 1.0,
            b_u=lambda t: 1.0,
            m=lambda t: 0.0,
        ),
        diffusion=Diffusion(
            sigma=lambda y, u, _a=alpha: _a * np.sqrt(1.0 + y * y),
            sigma_y=lambda y, u, _a=alpha: _a * y / np.sqrt(1.0 + y * y),
            sigma_u=ZERO,
        ),
        costs=CostDerivatives(h_y=h_y, j_u=_identity, g=_zero_terminal),
        y0=1.0,
        T=T,
        delta=delta,
        exact=exact,
    )
