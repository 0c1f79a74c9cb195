"""Built-in problem construction and self-consistency tests."""

import dataclasses
import math

import numpy as np
import pytest

from socproj.gridfn import TimeGrid, nodal_sample
from socproj.paths import euler_simulate, gen_brownian, mean_state_integral
from socproj.problems import (
    EXAMPLE2_DELTA,
    EXAMPLE3_DELTA_ACTIVE,
    VectorProblem,
    discretize,
    example1,
    example2,
    example3,
)

from tests.oracles import (
    finite_difference_mismatch,
    linear_growth_bound,
    validate_diffusion,
    validate_drift,
)


class TestExample1:
    def test_constraint_levels(self):
        vp = example1(d=5, mu=0.3, alpha=0.1)
        np.testing.assert_allclose(
            [c.delta for c in vp.components], [5 / 12, 5 / 24, 5 / 36, 5 / 48, 5 / 60]
        )

    def test_exact_control_values(self):
        comp = example1(d=3, mu=0.3, alpha=0.1).components[0]
        assert comp.exact.u_star(0.0) == pytest.approx(1.0)
        assert comp.exact.u_star(1.0) == pytest.approx(0.0)
        third = example1(d=3, mu=0.3, alpha=0.1).components[2]
        assert third.exact.u_star(0.5) == pytest.approx((1.0 - 0.25) / 3.0)

    def test_zero_multiplier_configuration(self):
        vp = example1(d=4, mu=0.0, alpha=0.1)
        assert all(c.exact.mu_star == 0.0 for c in vp.components)

    def test_multiplier_scales_inversely(self):
        vp = example1(d=5, mu=0.3, alpha=0.1)
        np.testing.assert_allclose(
            [c.exact.mu_star for c in vp.components], [0.3 / n for n in range(1, 6)]
        )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            example1(d=0, mu=0.3, alpha=0.1)

    def test_structure(self):
        comp = example1(d=1, mu=0.3, alpha=0.1).components[0]
        assert comp.drift.b_y(0.3) == 0.0
        assert comp.drift.b_u(0.3) == 1.0
        y = np.array([0.0, 1.0])
        np.testing.assert_array_equal(comp.diffusion.sigma(y, 2.0), [0.1, 0.1])
        np.testing.assert_array_equal(comp.diffusion.sigma_u(y, 2.0), [0.0, 0.0])

    def test_exact_control_meets_constraint_level(self):
        # simulating u* must reproduce delta_1 up to the Euler bias
        comp = example1(d=2, mu=0.3, alpha=0.1).components[0]
        grid = TimeGrid(1.0, 128)
        u = nodal_sample(comp.exact.u_star, grid)
        bw = gen_brownian(11, 2000, grid)
        integral = mean_state_integral(euler_simulate(discretize(comp, grid), u, bw))
        assert abs(integral - comp.delta) <= 0.5 * grid.dt


class TestExample2:
    def test_reported_constants(self):
        prob = example2(alpha=0.1)
        assert prob.delta == EXAMPLE2_DELTA
        assert prob.exact.mu_star == 0.2

    def test_exact_control_endpoints(self):
        prob = example2(alpha=0.1)
        assert prob.exact.u_star(0.0) == pytest.approx(1.0 / 1.01)
        assert prob.exact.u_star(1.0) == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            example2(alpha=0.0)

    def test_reported_delta_matches_exact_integral(self):
        # quadrature of the exact mean state rounds to the reported level
        from socproj.gridfn import trapezoid

        a = 0.01
        grid = TimeGrid(1.0, 20000)
        vals = np.array(
            [
                0.5 * (t - (math.log1p(a) - math.log1p(a * (1 - t))) / a) / a
                for t in grid.nodes
            ]
        )
        quad = trapezoid(vals, grid)
        assert quad == pytest.approx(0.16542657786, abs=1e-8)
        assert round(quad, 5) == EXAMPLE2_DELTA

    def test_driver_uses_time_dependent_target(self):
        prob = example2(alpha=0.1)
        y = np.array([0.0])
        h0 = prob.costs.h_y(0.0, y)[0]
        h1 = prob.costs.h_y(1.0, y)[0]
        assert h0 == pytest.approx(-1.2)  # target at t=0 is 1 + mu*
        assert h1 != h0


class TestExample3:
    def test_active_configuration_records_multiplier(self):
        prob = example3(alpha=0.1)
        assert prob.delta == EXAMPLE3_DELTA_ACTIVE
        assert prob.exact is not None and prob.exact.mu_star == 1.0
        assert prob.exact.u_star is None

    def test_sweep_configurations_have_no_reference(self):
        for delta in (1.0, 0.5):
            assert example3(alpha=0.1, delta=delta).exact is None

    def test_no_control_noise_coupling(self):
        prob = example3(alpha=0.1)
        y = np.linspace(-2, 2, 7)
        np.testing.assert_array_equal(prob.diffusion.sigma_u(y, 1.3), np.zeros(7))

    def test_state_noise_derivative(self):
        prob = example3(alpha=0.1)
        y = np.array([0.0, 1.0])
        np.testing.assert_allclose(
            prob.diffusion.sigma_y(y, 0.0), [0.0, 0.1 / math.sqrt(2.0)]
        )


class TestDeclaredBounds:
    # (problem, lower bound on |b_u|, bound on |b_y| + |b_u|,
    #  bound on |sigma_y| + |sigma_u|)
    @pytest.mark.parametrize(
        "prob, lower_bound, lip_bound, sigma_bound",
        [
            (example1(d=2, mu=0.3, alpha=0.1).components[0], 1.0, 1.0, 0.0),
            (example2(alpha=0.1), 1.0, 1.0, 0.1),
            (example3(alpha=0.1), 1.0, 2.0, 0.1),
        ],
        ids=["example1", "example2", "example3"],
    )
    def test_validators_accept_builtins(self, prob, lower_bound, lip_bound, sigma_bound):
        validate_drift(prob.drift, prob.T, lower_bound, lip_bound)
        validate_diffusion(prob.diffusion, sigma_bound)
        assert linear_growth_bound(prob.costs, prob.T) < 10.0

    def test_diffusion_derivatives_match_finite_differences(self):
        ys = np.linspace(-3.0, 3.0, 13)
        us = np.linspace(-2.0, 2.0, 5)
        for prob in (example2(alpha=0.1), example3(alpha=0.1)):
            assert finite_difference_mismatch(prob.diffusion, ys, us) < 1e-6


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: dataclasses.replace(example2(alpha=0.1), T=0.0), "horizon T must be positive"),
        (lambda: dataclasses.replace(example2(alpha=0.1), T=-1.0), "horizon T must be positive"),
        (lambda: dataclasses.replace(example2(alpha=0.1), T=math.nan), "horizon T must be finite"),
        (lambda: dataclasses.replace(example2(alpha=0.1), T=math.inf), "horizon T must be finite"),
        (
            lambda: dataclasses.replace(example2(alpha=0.1), delta=math.nan),
            "constraint level delta must be finite or +inf",
        ),
        (
            lambda: dataclasses.replace(example2(alpha=0.1), delta=-math.inf),
            "constraint level delta must be finite or +inf",
        ),
        (
            lambda: dataclasses.replace(example2(alpha=0.1), y0=math.nan),
            "initial state y0 must be finite",
        ),
        (
            lambda: dataclasses.replace(example2(alpha=0.1), y0=math.inf),
            "initial state y0 must be finite",
        ),
        (lambda: VectorProblem(components=()), "need at least one component"),
        (lambda: example3(alpha=0.0), "alpha must be nonzero"),
    ],
    ids=[
        "T=0", "T<0", "T=nan", "T=inf", "delta=nan", "delta=-inf", "y0=nan", "y0=inf",
        "empty-vector", "example3-alpha0",
    ],
)
def test_problem_constructors_name_the_bad_input(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
