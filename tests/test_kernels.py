"""Kernel ODE recursion tests against closed forms and hand values."""

import math

import numpy as np
import pytest

from socproj.gridfn import TimeGrid, trapezoid
from socproj.optimizer import solve_kernels, solve_psi, solve_varphi_tilde

from tests.oracles import analytic_psi_constant, check_kernel_identity, left_nodes


def _psi_error(n: int, c: float = 1.0) -> float:
    grid = TimeGrid(1.0, n)
    psi = solve_psi(grid, np.full(grid.N, c))
    exact = analytic_psi_constant(c, 1.0, grid.nodes)
    return float(np.max(np.abs(psi - exact)))


class TestSolvePsi:
    def test_zero_coefficient_is_remaining_time(self):
        psi = solve_psi(TimeGrid(1.0, 4), np.zeros(4))
        np.testing.assert_allclose(psi, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_two_step_hand_recursion(self):
        psi = solve_psi(TimeGrid(1.0, 2), np.ones(2))
        np.testing.assert_allclose(psi, [1.25, 0.5, 0.0])

    def test_against_closed_form_at_n64(self):
        grid = TimeGrid(1.0, 64)
        psi = solve_psi(grid, np.ones(grid.N))
        assert abs(psi[0] - (math.e - 1.0)) <= 0.05

    def test_first_order_halving(self):
        e64, e128 = _psi_error(64), _psi_error(128)
        assert 1.7 <= e64 / e128 <= 2.3

    def test_nonnegative_and_monotone(self):
        for b_y in (lambda t: 0.0, lambda t: 1.0, lambda t: -0.5, lambda t: t):
            grid = TimeGrid(1.0, 32)
            psi = solve_psi(grid, left_nodes(b_y, grid))
            assert np.all(psi >= 0.0)
            assert np.all(np.diff(psi) <= 1e-15)

    def test_bounded_by_constant_coefficient_envelope(self):
        # psi_n <= (e^{C(T-t_n)} - 1)/C + O(dt) with C bounding |b_y|
        grid = TimeGrid(1.0, 64)
        psi = solve_psi(grid, left_nodes(lambda t: math.sin(3.0 * t), grid))
        envelope = analytic_psi_constant(1.0, 1.0, grid.nodes)
        assert np.all(psi <= envelope + 3.0 * grid.dt)

    def test_loglog_slope_near_one(self):
        ns = np.array([32, 64, 128, 256])
        errs = np.array([_psi_error(n) for n in ns])
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert 0.85 <= slope <= 1.15

    def test_left_vs_right_coefficient_gap_is_first_order(self):
        # the same recursion with the coefficient at t_{n+1} (the textbook
        # explicit scheme) differs by O(dt) globally
        def psi_right_endpoint(grid, b_y):
            psi = np.zeros(grid.N + 1)
            for n in range(grid.N - 1, -1, -1):
                psi[n] = psi[n + 1] + (1.0 + psi[n + 1] * b_y(grid.nodes[n + 1])) * grid.dt
            return psi

        def gap(n):
            grid = TimeGrid(1.0, n)
            b_y = lambda t: math.sin(2.0 * t)
            psi = solve_psi(grid, left_nodes(b_y, grid))
            return float(np.max(np.abs(psi - psi_right_endpoint(grid, b_y))))

        assert 1.6 <= gap(64) / gap(128) <= 2.4


class TestAnalyticPsi:
    def test_zero_coefficient_limit(self):
        assert analytic_psi_constant(0.0, 1.0, 0.25) == pytest.approx(0.75)

    def test_unit_coefficient(self):
        assert analytic_psi_constant(1.0, 1.0, 0.0) == pytest.approx(math.e - 1.0)

    def test_terminal_condition(self):
        for c in (-2.0, 0.0, 0.7):
            assert analytic_psi_constant(c, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_limit_is_continuous_in_c(self):
        assert analytic_psi_constant(1e-13, 1.0, 0.3) == pytest.approx(0.7, rel=1e-9)


class TestVarphiTilde:
    def test_zero_source(self):
        grid = TimeGrid(1.0, 4)
        psi = solve_psi(grid, np.zeros(grid.N))
        v = solve_varphi_tilde(grid, np.zeros(grid.N), np.zeros(grid.N), psi)
        np.testing.assert_array_equal(v, np.zeros(5))

    def test_hand_recursion(self):
        grid = TimeGrid(1.0, 2)
        v = solve_varphi_tilde(grid, np.zeros(2), np.ones(2), np.array([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(v, [0.0, 0.5, 0.75])

    def test_integral_limit_first_order(self):
        # continuous response integral is T^3/3 for b_y=0, b_u=1
        def gap(n):
            grid = TimeGrid(1.0, n)
            _, I_tilde = solve_kernels(grid, np.zeros(grid.N), np.ones(grid.N))
            return abs(I_tilde - 1.0 / 3.0)

        assert gap(256) < gap(128) < gap(64)
        assert 1.6 <= gap(128) / gap(256) <= 2.4

    def test_initial_and_terminal_values(self):
        grid = TimeGrid(1.0, 16)
        psi, I_tilde = solve_kernels(grid, np.ones(grid.N), np.ones(grid.N))
        varphi = solve_varphi_tilde(grid, np.ones(grid.N), np.ones(grid.N), psi)
        assert psi[-1] == 0.0
        assert varphi[0] == 0.0
        assert I_tilde == trapezoid(varphi, grid)


class TestKernelIdentity:
    def test_vanishes_without_control_coefficient(self):
        assert check_kernel_identity(TimeGrid(1.0, 64), lambda t: 0.5, lambda t: 0.0) == 0.0

    def test_residual_small_at_fine_grid(self):
        resid = check_kernel_identity(TimeGrid(1.0, 512), lambda t: 0.0, lambda t: 1.0)
        assert resid <= 0.01
        # both sides approach 1/3
        grid = TimeGrid(1.0, 512)
        _, I_tilde = solve_kernels(grid, np.zeros(grid.N), np.ones(grid.N))
        assert I_tilde == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_residual_halves(self):
        r256 = check_kernel_identity(TimeGrid(1.0, 256), lambda t: 1.0, lambda t: 1.0)
        r512 = check_kernel_identity(TimeGrid(1.0, 512), lambda t: 1.0, lambda t: 1.0)
        assert 1.6 <= r256 / r512 <= 2.4
