"""Brownian ensemble and Euler simulation tests."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from socproj.gridfn import StepFunction, TimeGrid, constant_control, nodal_sample
from socproj.paths import (
    BrownianEnsemble,
    PathEnsemble,
    SimulationError,
    derive_seed,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
from socproj.problems import (
    CostDerivatives,
    Diffusion,
    ExactSolution,
    LinearDrift,
    ProblemSpec,
    discretize,
    example2,
    example3,
)


def _deterministic_problem(b_y=0.0, b_u=1.0, m=0.0, sigma=0.0, y0=0.0):
    return ProblemSpec(
        name="toy",
        drift=LinearDrift(
            b_y=lambda t: b_y,
            b_u=lambda t: b_u,
            m=lambda t: m,
        ),
        diffusion=Diffusion(
            sigma=lambda y, u, _s=sigma: np.full_like(y, _s),
            sigma_y=lambda y, u: np.zeros_like(y),
            sigma_u=lambda y, u: np.zeros_like(y),
        ),
        costs=CostDerivatives(
            h_y=lambda t, y: np.zeros_like(y),
            j_u=lambda u: u,
            g=lambda y: np.zeros_like(y),
        ),
        y0=y0,
        T=1.0,
        delta=1e9,
        exact=ExactSolution(u_star=lambda t: 0.0, mu_star=0.0),
    )


def _reference_brownian(seed, L, grid, normalize):
    """gen_brownian built the direct way: one fresh Generator on
    ``Philox(key=seed)``, drawing N standard normals per path, path by path."""
    normal = np.random.Generator(np.random.Philox(key=seed)).standard_normal
    z = np.array([normal(grid.N) for _ in range(L)])
    dw = z * np.sqrt(grid.dt)
    if normalize and L >= 2:
        dw = dw - dw.mean(axis=0)
        scale = np.sqrt(np.mean(dw * dw, axis=0))
        dw = dw * (np.sqrt(grid.dt) / scale)
    return dw


class TestGenBrownian:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1])
    def test_matches_one_stream_drawn_path_by_path(self, seed, normalize):
        # N = 1 keeps numpy's pairwise column mean; at N = 40 a 256 KiB block
        # holds 819 rows, so 2500 paths fill three blocks and end in a
        # partial one
        sizes = [(L, N) for L in (1, 2, 7, 2000) for N in (1, 2, 40)] + [(2500, 40)]
        for L, N in sizes:
            grid = TimeGrid(1.0, N)
            bw = gen_brownian(seed, L, grid, normalize=normalize)
            ref = _reference_brownian(seed, L, grid, normalize)
            assert np.array_equal(bw.increments, ref), (L, N)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("N", [8, 16])
    def test_matches_one_stream_drawn_path_by_path_at_tracking5d_size(self, N, normalize):
        grid = TimeGrid(1.0, N)
        bw = gen_brownian(90817, 10_000, grid, normalize=normalize)
        ref = _reference_brownian(90817, 10_000, grid, normalize)
        assert np.array_equal(bw.increments, ref)

    def test_peak_memory_is_one_ensemble_and_one_block(self):
        grid = TimeGrid(1.0, 16)
        gen_brownian(90817, 10_000, grid)
        tracemalloc.start()
        try:
            bw = gen_brownian(90817, 10_000, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bw.increments.nbytes + 256 * 1024 + 64 * 1024

    def test_same_seed_reproduces_bitwise(self):
        grid = TimeGrid(1.0, 8)
        a = gen_brownian(42, 100, grid)
        b = gen_brownian(42, 100, grid)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        grid = TimeGrid(1.0, 8)
        a = gen_brownian(1, 50, grid)
        b = gen_brownian(2, 50, grid)
        assert not np.array_equal(a.increments, b.increments)

    def test_leading_paths_independent_of_path_count(self):
        grid = TimeGrid(1.0, 6)
        small = gen_brownian(9, 5, grid, normalize=False)
        large = gen_brownian(9, 50, grid, normalize=False)
        np.testing.assert_array_equal(small.increments, large.increments[:5])

    def test_per_step_variance_window_raw(self):
        grid = TimeGrid(1.0, 10)  # dt = 0.1, window is dt*(1 +/- 5%)
        bw = gen_brownian(7, 10_000, grid, normalize=False)
        var = bw.increments.var(axis=0)
        assert np.all((var >= 0.095) & (var <= 0.105))

    def test_normalized_moments_exact(self):
        grid = TimeGrid(1.0, 10)
        bw = gen_brownian(7, 2000, grid)
        np.testing.assert_allclose(bw.increments.mean(axis=0), 0.0, atol=1e-16)
        np.testing.assert_allclose(
            np.mean(bw.increments**2, axis=0), grid.dt, rtol=1e-13
        )

    def test_overall_mean_bound(self):
        grid = TimeGrid(1.0, 10)
        bw = gen_brownian(123, 10_000, grid, normalize=False)
        bound = 4.0 * math.sqrt(grid.dt / bw.increments.size)
        assert abs(bw.increments.mean()) <= bound

    def test_standard_normal_moment_test(self):
        grid = TimeGrid(1.0, 10)
        z = gen_brownian(3, 10_000, grid, normalize=False).increments / math.sqrt(
            grid.dt
        )
        z = z.ravel()
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4))
        assert abs(skew) <= 0.05
        assert abs(kurt - 3.0) <= 0.1

    def test_single_path_skips_normalization(self):
        grid = TimeGrid(1.0, 4)
        bw = gen_brownian(5, 1, grid)
        raw = np.random.Generator(np.random.Philox(key=5)).standard_normal(grid.N)
        assert np.array_equal(bw.increments[0], raw * np.sqrt(grid.dt))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_brownian(1, 0, TimeGrid(1.0, 4))
        with pytest.raises(ValueError):
            gen_brownian(-1, 4, TimeGrid(1.0, 4))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(1234, k) for k in range(16)]
        assert seeds == [derive_seed(1234, k) for k in range(16)]
        assert len(set(seeds)) == 16
        assert all(0 <= s < 2**63 for s in seeds)


class TestEulerSimulate:
    def test_frozen_dynamics(self):
        prob = _deterministic_problem(b_u=0.0, y0=7.0)
        grid = TimeGrid(1.0, 5)
        paths = euler_simulate(
            discretize(prob, grid), constant_control(grid, 0.0), gen_brownian(1, 3, grid)
        )
        np.testing.assert_array_equal(paths.states, np.full((3, 6), 7.0))

    def test_deterministic_ramp(self):
        prob = _deterministic_problem()
        grid = TimeGrid(1.0, 4)
        paths = euler_simulate(
            discretize(prob, grid), constant_control(grid, 1.0), gen_brownian(1, 2, grid)
        )
        np.testing.assert_allclose(paths.states[0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_mismatch(self):
        prob = _deterministic_problem()
        with pytest.raises(ValueError):
            euler_simulate(
                discretize(prob, TimeGrid(1.0, 4)),
                constant_control(TimeGrid(1.0, 4), 0.0),
                gen_brownian(1, 2, TimeGrid(1.0, 8)),
            )

    def test_nonfinite_state_raises(self):
        prob = _deterministic_problem(m=float("nan"))
        grid = TimeGrid(1.0, 4)
        with pytest.raises(SimulationError):
            euler_simulate(
                discretize(prob, grid), constant_control(grid, 0.0), gen_brownian(1, 2, grid)
            )

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize(
        "case",
        [
            # a NaN control; example3's state-dependent noise then meets
            # inf - inf on later steps
            (lambda: example3(alpha=0.1), float("nan")),
            (lambda: example3(alpha=0.1), float("inf")),
            # b_u * u overflows on step k itself
            (lambda: _deterministic_problem(b_u=4.0, sigma=0.1), 1e308),
        ],
        ids=["nan", "inf", "overflow"],
    )
    def test_nonfinite_state_names_its_first_step(self, case, k):
        make, bad = case
        grid = TimeGrid(1.0, 8)
        values = np.full(grid.N, 0.2)
        values[k - 1] = bad
        prob = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=rf"non-finite state at step {k}$"):
                euler_simulate(
                    discretize(prob, grid), StepFunction(grid, values), gen_brownian(3, 50, grid)
                )

    def test_exact_control_reproduces_constraint_level(self):
        # with normalized increments the mean path is deterministic, so the
        # integral misses the reported level only by the O(dt) Euler bias
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 256)
        u = nodal_sample(prob.exact.u_star, grid)
        bw = gen_brownian(31, 4000, grid)
        integral = mean_state_integral(euler_simulate(discretize(prob, grid), u, bw))
        assert abs(integral - prob.delta) <= 0.5 * grid.dt

    def test_exact_control_within_three_standard_errors_raw(self):
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 256)
        u = nodal_sample(prob.exact.u_star, grid)
        bw = gen_brownian(31, 4000, grid, normalize=False)
        paths = euler_simulate(discretize(prob, grid), u, bw)
        per_path = np.array(
            [
                grid.dt * (0.5 * row[0] + row[1:-1].sum() + 0.5 * row[-1])
                for row in paths.states
            ]
        )
        se = per_path.std() / math.sqrt(paths.L)
        assert abs(per_path.mean() - prob.delta) <= 3.0 * se + 0.5 * grid.dt


class TestCommonRandomNumbers:
    def test_mean_difference_recursion_exact_for_state_free_sigma(self):
        # identical noise arrays cancel in the cross-path mean difference up
        # to float roundoff when sigma has no state dependence
        prob = _deterministic_problem(b_y=0.4, sigma=0.5)
        grid = TimeGrid(1.0, 8)
        bw = gen_brownian(77, 500, grid)
        rng = np.random.default_rng(0)
        u = StepFunction(grid, rng.normal(size=8))
        v = StepFunction(grid, rng.normal(size=8))
        mu = euler_simulate(discretize(prob, grid), u, bw).states.mean(axis=0)
        mv = euler_simulate(discretize(prob, grid), v, bw).states.mean(axis=0)
        diff = mu - mv
        for n in range(8):
            predicted = (1.0 + 0.4 * grid.dt) * diff[n] + (
                u.values[n] - v.values[n]
            ) * grid.dt
            assert diff[n + 1] == pytest.approx(predicted, abs=1e-12)

    def test_weak_euler_error_first_order(self):
        # mean path error for example2 halves when dt halves (normalized
        # increments make the sample mean deterministic, isolating the bias)
        prob = example2(alpha=0.1)

        def mean_bias(n):
            grid = TimeGrid(1.0, n)
            u = nodal_sample(prob.exact.u_star, grid)
            bw = gen_brownian(5, 2000, grid)
            integral = mean_state_integral(euler_simulate(discretize(prob, grid), u, bw))
            return abs(integral - 0.16542657786208414)  # exact continuous value

        b64, b128 = mean_bias(64), mean_bias(128)
        assert 1.6 <= b64 / b128 <= 2.4


class TestMeanStateIntegral:
    def test_constant_ensemble(self):
        grid = TimeGrid(1.0, 4)
        prob = _deterministic_problem(b_u=0.0, y0=3.0)
        paths = euler_simulate(
            discretize(prob, grid), constant_control(grid, 0.0), gen_brownian(1, 10, grid)
        )
        assert mean_state_integral(paths) == pytest.approx(3.0)

    def test_ramp_ensemble(self):
        prob = _deterministic_problem()
        grid = TimeGrid(1.0, 4)
        paths = euler_simulate(
            discretize(prob, grid), constant_control(grid, 1.0), gen_brownian(1, 2, grid)
        )
        assert mean_state_integral(paths) == pytest.approx(0.5)

    def test_two_path_hand_value(self):

        grid = TimeGrid(1.0, 2)
        paths = PathEnsemble(grid=grid, states=np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 4.0]]))
        assert mean_state_integral(paths) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda g: BrownianEnsemble(g, np.zeros((3, g.N + 1))),
            "increments do not match the grid",
        ),
        (lambda g: PathEnsemble(g, np.zeros((3, g.N))), "states do not match the grid"),
    ],
    ids=["increments", "states"],
)
def test_ensembles_reject_arrays_of_another_grid(make, message):
    with pytest.raises(ValueError) as info:
        make(TimeGrid(1.0, 4))
    assert str(info.value) == message
