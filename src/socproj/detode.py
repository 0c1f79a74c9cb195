"""Deterministic kernel ODEs of the projection step.

Two scalar recursions drive the multiplier construction, on the left-node
coefficient arrays b_y[n] = b_y(t_n) of ``problems.discretize``:

* the backward kernel ``psi`` with psi_N = 0 and
  psi_n = psi_{n+1} + (1 + psi_{n+1} * b_y[n]) * dt,
  where the coefficient is deliberately taken at the *left* node t_n -- this
  is what keeps the discrete adjoint shift identity p = p_hat + mu*psi exact;
* the forward response kernel ``varphi_tilde`` with varphi_tilde_0 = 0 and
  varphi_tilde_{n+1} = varphi_tilde_n
                       + (b_y[n] * varphi_tilde_n + b_u[n]^2 * psi_n) * dt,
  whose trapezoidal integral normalizes the multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfn import TimeGrid, trapezoid

__all__ = [
    "KernelSolution",
    "solve_kernels",
    "solve_psi",
    "solve_varphi_tilde",
]


@dataclass(frozen=True, eq=False)
class KernelSolution:
    """Nodal values of the backward kernel psi and forward kernel varphi_tilde."""

    grid: TimeGrid
    psi: np.ndarray
    varphi_tilde: np.ndarray

    @property
    def i_tilde(self) -> float:
        """Trapezoidal integral of varphi_tilde (the multiplier denominator)."""
        return trapezoid(self.varphi_tilde, self.grid)


def _values(values: np.ndarray, n: int, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} must have {n} values, got shape {values.shape}")
    return values


def solve_psi(grid: TimeGrid, b_y: np.ndarray) -> np.ndarray:
    """Backward kernel recursion with left-node coefficients b_y[n]."""
    b_y = _values(b_y, grid.N, "b_y")
    dt = grid.dt
    psi = np.zeros(grid.N + 1)
    for n in range(grid.N - 1, -1, -1):
        psi[n] = psi[n + 1] + (1.0 + psi[n + 1] * b_y[n]) * dt
    return psi


def solve_varphi_tilde(
    grid: TimeGrid, b_y: np.ndarray, b_u: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """Forward Euler for the mean-state response to a unit multiplier push."""
    b_y, b_u = _values(b_y, grid.N, "b_y"), _values(b_u, grid.N, "b_u")
    psi = _values(psi, grid.N + 1, "psi")
    dt = grid.dt
    v = np.zeros(grid.N + 1)
    for n in range(grid.N):
        v[n + 1] = v[n] + (b_y[n] * v[n] + b_u[n] ** 2 * psi[n]) * dt
    return v


def solve_kernels(grid: TimeGrid, b_y: np.ndarray, b_u: np.ndarray) -> KernelSolution:
    psi = solve_psi(grid, b_y)
    return KernelSolution(grid, psi, solve_varphi_tilde(grid, b_y, b_u, psi))
