"""Grid, step-function, quadrature and norm tests."""

import math

import numpy as np
import pytest

from socproj.gridfn import (
    StepFunction,
    TimeGrid,
    constant_control,
    l2_dist,
    linf_dist,
    nodal_sample,
    trapezoid,
)

from tests.oracles import l2_dist_to_function, l2_project


class TestTimeGrid:
    def test_uniform_partition(self):
        grid = TimeGrid(T=2.0, N=5)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0
        np.testing.assert_allclose(np.diff(grid.nodes), grid.dt)
        assert grid.dt == pytest.approx(0.4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, N=4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, N=0)
        for T in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"horizon must be finite"):
                TimeGrid(T=T, N=4)

    def test_equality_ignores_node_storage(self):
        assert TimeGrid(1.0, 4) == TimeGrid(1.0, 4)
        assert TimeGrid(1.0, 4) != TimeGrid(1.0, 8)


class TestStepFunction:
    def test_interval_semantics(self):
        grid = TimeGrid(T=1.0, N=4)
        u = StepFunction(grid, [1.0, 2.0, 3.0, 4.0])
        assert u(0.0) == 1.0
        assert u(0.25) == 2.0  # left-closed intervals
        assert u(0.999) == 4.0
        assert u(1.0) == 4.0  # final interval closed at T
        np.testing.assert_array_equal(u(np.array([0.1, 0.6])), [1.0, 3.0])

    def test_length_check(self):
        with pytest.raises(ValueError):
            StepFunction(TimeGrid(1.0, 4), [1.0, 2.0])


class TestNodalSample:
    def test_constant(self):
        u = nodal_sample(lambda t: 5.0, TimeGrid(1.0, 4))
        np.testing.assert_array_equal(u.values, [5.0, 5.0, 5.0, 5.0])

    def test_identity(self):
        u = nodal_sample(lambda t: t, TimeGrid(1.0, 4))
        np.testing.assert_allclose(u.values, [0.0, 0.25, 0.5, 0.75])

    def test_linear_decreasing(self):
        u = nodal_sample(lambda t: 1.0 - t, TimeGrid(1.0, 2))
        np.testing.assert_allclose(u.values, [1.0, 0.5])


class TestL2Project:
    def test_reproduces_constants(self):
        u = l2_project(lambda t: 3.25, TimeGrid(1.0, 5))
        np.testing.assert_allclose(u.values, 3.25)

    def test_linear_midpoints(self):
        u = l2_project(lambda t: t, TimeGrid(1.0, 2))
        np.testing.assert_allclose(u.values, [0.25, 0.75])

    def test_quadratic_exact(self):
        u = l2_project(lambda t: t * t, TimeGrid(1.0, 1), q=3)
        assert u.values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_order_check(self):
        with pytest.raises(ValueError):
            l2_project(lambda t: t, TimeGrid(1.0, 2), q=1)

    def test_agrees_with_nodal_sample_on_step_functions(self):
        grid = TimeGrid(1.0, 6)
        rng = np.random.default_rng(11)
        f = StepFunction(grid, rng.normal(size=6))
        np.testing.assert_allclose(
            l2_project(f, grid).values, nodal_sample(f, grid).values, atol=1e-14
        )


class TestDistances:
    def test_linf_identical(self):
        grid = TimeGrid(1.0, 3)
        u = StepFunction(grid, [1.0, 2.0, 3.0])
        assert linf_dist(u, u) == 0.0

    def test_linf_componentwise_max(self):
        grid = TimeGrid(1.0, 3)
        u = StepFunction(grid, [1.0, 2.0, 3.0])
        v = StepFunction(grid, [1.0, 2.5, 2.0])
        assert linf_dist(u, v) == 1.0

    def test_linf_absolute_value(self):
        grid = TimeGrid(1.0, 2)
        assert linf_dist(StepFunction(grid, [0, 0]), StepFunction(grid, [-3, 1])) == 3.0

    def test_linf_grid_mismatch(self):
        with pytest.raises(ValueError):
            linf_dist(
                constant_control(TimeGrid(1.0, 2), 0.0), constant_control(TimeGrid(1.0, 3), 0.0)
            )

    def test_l2_dist_to_function_exact_representation(self):
        grid = TimeGrid(1.0, 4)
        u = nodal_sample(lambda t: 2.5, grid)
        assert l2_dist_to_function(u, lambda t: 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_l2_dist_to_function_linear_vs_zero(self):
        u = constant_control(TimeGrid(1.0, 5), 0.0)
        assert l2_dist_to_function(u, lambda t: t) == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-12
        )

    def test_l2_dist_to_function_best_constant(self):
        grid = TimeGrid(1.0, 1)
        u = l2_project(lambda t: t, grid)
        assert l2_dist_to_function(u, lambda t: t) == pytest.approx(
            math.sqrt(1.0 / 12.0), abs=1e-12
        )

    def test_l2_dist_between_steps(self):
        grid = TimeGrid(1.0, 2)
        u = StepFunction(grid, [1.0, 1.0])
        v = StepFunction(grid, [0.0, 2.0])
        assert l2_dist(u, v) == pytest.approx(1.0)


class TestTrapezoid:
    def test_constant(self):
        grid = TimeGrid(1.0, 4)
        assert trapezoid(np.ones(5), grid) == pytest.approx(1.0)

    def test_linear_nodes(self):
        for n in (2, 5, 9):
            grid = TimeGrid(1.0, n)
            assert trapezoid(grid.nodes, grid) == pytest.approx(0.5)

    def test_quadratic_hand_value(self):
        grid = TimeGrid(1.0, 2)
        assert trapezoid(grid.nodes**2, grid) == pytest.approx(0.375)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            trapezoid(np.ones(4), TimeGrid(1.0, 4))

    def test_exact_for_affine_data(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.normal(size=2)
            grid = TimeGrid(2.0, int(rng.integers(2, 30)))
            exact = a * 2.0 + b * 2.0  # int_0^2 (a + b t) dt = 2a + 2b
            assert trapezoid(a + b * grid.nodes, grid) == pytest.approx(exact)


class TestProjectionProperties:
    def test_best_approximation(self):
        # the interval-average projection beats every other step function
        grid = TimeGrid(1.0, 8)
        rng = np.random.default_rng(17)
        for f in (math.sin, math.exp, lambda t: t**3 - t):
            proj = l2_project(f, grid, q=8)
            best = l2_dist_to_function(proj, f, q=8)
            for _ in range(20):
                s = StepFunction(grid, proj.values + rng.normal(size=8, scale=0.3))
                assert best <= l2_dist_to_function(s, f, q=8) + 1e-13

    def test_nodal_sampling_lipschitz_bound(self):
        # ||nodal_sample(f) - f|| <= C_f sqrt(T) dt for Lipschitz f
        for f, lip in ((math.sin, 1.0), (lambda t: t * t, 2.0)):
            for n in (4, 16, 64):
                grid = TimeGrid(1.0, n)
                err = l2_dist_to_function(nodal_sample(f, grid), f, q=8)
                assert err <= lip * math.sqrt(grid.T) * grid.dt + 1e-12

    def test_zero_and_constant_controls(self):
        grid = TimeGrid(1.0, 3)
        np.testing.assert_array_equal(constant_control(grid, 0.0).values, np.zeros(3))
        np.testing.assert_array_equal(constant_control(grid, 2.5).values, [2.5] * 3)
