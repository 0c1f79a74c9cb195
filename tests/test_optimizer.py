"""Gradient assembly, multiplier, projection update and full-solve tests."""

import dataclasses
import re

import numpy as np
import pytest

from socproj import optimizer
from socproj.bench import SweepConfig, run_sweep
from socproj.gridfn import (
    StepFunction,
    TimeGrid,
    constant_control,
    linf_dist,
)
from socproj.lsmc import BasisSpec, BsdeSolution, solve_bsde_hat
from socproj.optimizer import (
    SolveConfig,
    compute_multiplier,
    gradient,
    project_update,
    solve,
    solve_kernels,
    solve_psi,
)
from socproj.paths import SimulationError, euler_simulate, gen_brownian, mean_state_integral
from socproj.problems import (
    CostDerivatives,
    Diffusion,
    ExactSolution,
    LinearDrift,
    ProblemSpec,
    discretize,
    example1,
    example2,
    example3,
)


def contraction_problem(b_y=0.5, sigma=0.3):
    """No running or terminal cost derivative: the adjoint vanishes and the
    update becomes u <- (1 - rho) u exactly."""
    return ProblemSpec(
        name="contraction",
        drift=LinearDrift(
            b_y=lambda t: b_y,
            b_u=lambda t: 1.0,
            m=lambda t: 0.0,
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
        y0=0.0,
        T=1.0,
        delta=1e9,
        exact=ExactSolution(u_star=lambda t: 0.0, mu_star=0.0),
    )


def _fake_adjoint(grid, L, p_const, q_const):
    p = np.full((L, grid.N + 1), p_const, dtype=float)
    q = np.full((L, grid.N), q_const, dtype=float)
    return BsdeSolution(grid=grid, p_hat=p, q_hat=q)


class TestGradient:
    def test_cost_term_only(self):
        prob = contraction_problem()
        grid = TimeGrid(1.0, 2)
        bw = gen_brownian(1, 8, grid)
        u = StepFunction(grid, [3.0, 7.0])
        gp = discretize(prob, grid)
        ens = euler_simulate(gp, u, bw)
        g = gradient(u, ens, _fake_adjoint(grid, 8, 0.0, 0.0), gp)
        np.testing.assert_allclose(g.values, [3.0, 7.0])

    def test_reduces_to_mean_p_when_no_noise_coupling(self):
        prob = ProblemSpec(
            name="mean-p",
            drift=contraction_problem().drift,
            diffusion=contraction_problem().diffusion,
            costs=CostDerivatives(
                h_y=lambda t, y: np.zeros_like(y),
                j_u=lambda u: 0.0,
                g=lambda y: np.zeros_like(y),
            ),
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        grid = TimeGrid(1.0, 3)
        bw = gen_brownian(1, 16, grid)
        u = constant_control(grid, 0.0)
        gp = discretize(prob, grid)
        ens = euler_simulate(gp, u, bw)
        g = gradient(u, ens, _fake_adjoint(grid, 16, 1.75, 9.0), gp)
        np.testing.assert_allclose(g.values, 1.75)  # q-term killed by sigma_u = 0


class TestComputeMultiplier:
    def test_inactive_constraint(self):
        assert compute_multiplier(0.5, 1.0, 0.3, 0.1) == 0.0

    def test_arithmetic(self):
        assert compute_multiplier(1.2, 1.0, 0.4, 0.5) == pytest.approx(1.0)

    def test_degenerate_kernel_raises(self):
        with pytest.raises(ValueError):
            compute_multiplier(1.2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            compute_multiplier(1.2, 1.0, -0.1, 0.5)

    def test_fine_grid_response_integral(self):
        # with b_y = 0, b_u = 1 the response integral approaches 1/3
        _, I_tilde = solve_kernels(TimeGrid(1.0, 512), np.zeros(512), np.ones(512))
        mu = compute_multiplier(0.16543 + 0.1, 0.16543, I_tilde, 0.1)
        assert mu == pytest.approx(3.0, abs=0.05)


class TestProjectUpdate:
    def test_inactive_is_identity(self):
        grid = TimeGrid(1.0, 4)
        u = constant_control(grid, 1.5)
        psi = solve_psi(grid, np.zeros(grid.N))
        out = project_update(u, 0.0, psi, np.ones(grid.N), 0.5)
        np.testing.assert_array_equal(out.values, u.values)

    def test_componentwise_product(self):
        grid = TimeGrid(1.0, 2)
        out = project_update(
            constant_control(grid, 0.0), 1.0, np.array([1.0, 0.5, 0.0]), np.ones(2), 1.0
        )
        np.testing.assert_allclose(out.values, [-1.0, -0.5])

    @pytest.mark.parametrize("b_u", [1.0, np.ones(1), np.ones(3), np.ones((2, 1))])
    def test_rejects_b_u_of_wrong_shape(self, b_u):
        grid = TimeGrid(1.0, 2)
        psi = np.array([1.0, 0.5, 0.0])
        with pytest.raises(ValueError, match=r"b_u must have 2 values, got shape"):
            project_update(constant_control(grid, 0.0), 1.0, psi, b_u, 1.0)

    def test_feasibility_chain_exact_for_constant_sigma(self):
        # after the multiplier update, re-simulating on the same ensemble
        # yields the trapezoidal integral min(I_hat, delta) to 1e-10
        prob = example1(d=1, mu=0.3, alpha=0.1).components[0]
        grid = TimeGrid(1.0, 16)
        bw = gen_brownian(3, 2000, grid)
        gp = discretize(prob, grid)
        psi, I_tilde = solve_kernels(grid, gp.b_y, gp.b_u)
        u_half = constant_control(grid, 1.2)  # infeasible half step
        I_hat = mean_state_integral(euler_simulate(gp, u_half, bw))
        assert I_hat > prob.delta
        rho = 0.5
        mu = compute_multiplier(I_hat, prob.delta, I_tilde, rho)
        u_new = project_update(u_half, mu, psi, gp.b_u, rho)
        integral = mean_state_integral(euler_simulate(gp, u_new, bw))
        assert abs(integral - min(I_hat, prob.delta)) <= 1e-10


class TestSolve:
    def test_contraction_matches_closed_form(self):
        prob = contraction_problem()
        grid = TimeGrid(1.0, 8)
        cfg = SolveConfig(
            rho=0.5,
            eps0=1e-12,
            L=64,
            basis=BasisSpec("hypercube", 4),
            seed=11,
            max_iters=200,
        )
        res = solve(prob, cfg, constant_control(grid, 1.0))
        assert res.converged
        for state in res.history:
            expected = (1.0 - cfg.rho) ** state.i
            assert np.max(np.abs(state.u.values - expected)) <= 1e-12
            assert state.mu == 0.0

    def test_convergence_flag_and_history_error(self):
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 12)
        cfg = SolveConfig(
            rho=0.1, eps0=1e-4, L=500, basis=BasisSpec("voronoi", 10), seed=4
        )
        res = solve(prob, cfg, constant_control(grid, 0.0))
        assert res.converged
        assert res.history[-1].error <= cfg.eps0
        assert all(st.mu >= 0.0 for st in res.history)
        assert res.iterations == len(res.history)

    def test_nonconvergence_reported_not_raised(self):
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 12)
        cfg = SolveConfig(
            rho=0.1,
            eps0=1e-4,
            L=200,
            basis=BasisSpec("voronoi", 10),
            seed=4,
            max_iters=3,
        )
        res = solve(prob, cfg, constant_control(grid, 0.0))
        assert not res.converged
        assert res.iterations == 3

    @staticmethod
    def _solve_example2(max_iters, rho=50.0, problem=None):
        cfg = SolveConfig(
            rho=rho, eps0=1e-4, L=200, basis=BasisSpec("voronoi", 10), seed=4,
            max_iters=max_iters,
        )
        prob = example2(alpha=0.1) if problem is None else problem
        return solve(prob, cfg, constant_control(TimeGrid(1.0, 8), 0.0))

    def test_divergence_stops_the_fifth_growing_step(self):
        # rho = 50 is far past the contraction range: every step grows, so
        # iterations 2 .. 5 grow four times in a row and the sixth stops
        res = self._solve_example2(optimizer.DIVERGENCE_STREAK)
        errors = [s.error for s in res.history]
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert not res.converged and res.iterations == optimizer.DIVERGENCE_STREAK
        with pytest.raises(
            SimulationError,
            match=r"^diverged at iteration 6: control step \S+ after 5 consecutive rises$",
        ):
            self._solve_example2(optimizer.DIVERGENCE_STREAK + 1)

    def test_nonfinite_control_stops_the_solve(self):
        prob = example2(alpha=0.1)
        prob = dataclasses.replace(
            prob, costs=dataclasses.replace(prob.costs, j_u=lambda u: float("inf"))
        )
        with pytest.raises(
            SimulationError, match=r"^diverged at iteration 1: non-finite control$"
        ):
            self._solve_example2(3, rho=0.1, problem=prob)

    def test_nonfinite_multiplier_stops_the_solve(self, monkeypatch):
        # a finite u_half with a non-finite multiplier gives a non-finite
        # projected control, reported as such and not as a streak
        monkeypatch.setattr(optimizer, "compute_multiplier", lambda *a: float("nan"))
        with pytest.raises(
            SimulationError, match=r"^diverged at iteration 1: non-finite control$"
        ):
            self._solve_example2(3, rho=0.1)

    def test_every_iterate_feasible_for_state_free_sigma(self):
        # sigma = alpha*u has no state dependence, so with normalized
        # increments the restored integral is exact at every iteration
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 10)
        cfg = SolveConfig(
            rho=0.1, eps0=1e-4, L=400, basis=BasisSpec("voronoi", 8), seed=6
        )
        res = solve(prob, cfg, constant_control(grid, 0.0))
        bw = gen_brownian(cfg.seed, cfg.L, grid)
        for state in res.history[:: max(1, len(res.history) // 6)]:
            integral = mean_state_integral(
                euler_simulate(discretize(prob, grid), state.u, bw)
            )
            assert integral <= min(state.I_hat, prob.delta) + 1e-10
            assert abs(integral - min(state.I_hat, prob.delta)) <= 1e-10

    @pytest.mark.parametrize("broken", ["projection", "declaration"])
    def test_inexact_restoration_fails_the_solve(self, monkeypatch, broken):
        # sigma_y = ZERO and normalized increments make the restoration exact:
        # a projection that restores half the excess, or a sigma that depends
        # on the state despite its ZERO sigma_y, fails the solve
        prob = example2(alpha=0.1)
        if broken == "projection":
            update = optimizer.project_update
            monkeypatch.setattr(
                optimizer, "project_update",
                lambda u_half, mu, *rest: update(u_half, 0.5 * mu, *rest),
            )
        else:
            prob = dataclasses.replace(prob, diffusion=dataclasses.replace(
                prob.diffusion, sigma=lambda y, u: 0.1 * u + 0.05 * y
            ))
        grid = TimeGrid(1.0, 8)
        cfg = SolveConfig(rho=0.1, eps0=1e-3, L=300, basis=BasisSpec("voronoi", 8), seed=6)
        with pytest.raises(SimulationError) as exc:
            solve(prob, cfg, constant_control(grid, 0.0))
        residual, bound = re.fullmatch(
            r"feasibility residual (\S+) exceeds (\S+) after iteration \d+", str(exc.value)
        ).groups()
        assert float(residual) > float(bound) >= optimizer.FEASIBILITY_TOL
        # unnormalized increments promise no exact restoration: reported only
        raw = dataclasses.replace(cfg, normalize_increments=False)
        res = solve(prob, raw, constant_control(grid, 0.0))
        assert res.feasibility_residual > optimizer.FEASIBILITY_TOL

    def test_state_dependent_sigma_feasible_within_tolerance(self):
        prob = example3(alpha=0.1, delta=1.0)
        grid = TimeGrid(1.0, 12)
        cfg = SolveConfig(
            rho=0.1, eps0=1e-4, L=2000, basis=BasisSpec("voronoi", 20), seed=8
        )
        res = solve(prob, cfg, constant_control(grid, 0.0))
        bw = gen_brownian(cfg.seed, cfg.L, grid)
        integral = mean_state_integral(
            euler_simulate(discretize(prob, grid), res.u_final, bw)
        )
        assert integral <= prob.delta + 1e-3

    def test_determinism_bitwise(self):
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 12)
        cfg = SolveConfig(
            rho=0.1, eps0=1e-4, L=500, basis=BasisSpec("hypercube", 10), seed=12
        )
        a = solve(prob, cfg, constant_control(grid, 0.0))
        b = solve(prob, cfg, constant_control(grid, 0.0))
        np.testing.assert_array_equal(a.u_final.values, b.u_final.values)
        assert a.mu_final == b.mu_final
        assert [s.error for s in a.history] == [s.error for s in b.history]
        assert [s.I_hat for s in a.history] == [s.I_hat for s in b.history]

    @pytest.mark.parametrize("normalize", [True, False])
    def test_state_integral_is_final_control_on_own_ensemble(self, normalize):
        prob = example3(alpha=0.1, delta=1.0)
        grid = TimeGrid(1.0, 8)
        cfg = SolveConfig(
            rho=0.1,
            eps0=1e-4,
            L=300,
            basis=BasisSpec("voronoi", 8),
            seed=21,
            normalize_increments=normalize,
        )
        res = solve(prob, cfg, constant_control(grid, 0.0))
        bw = gen_brownian(cfg.seed, cfg.L, grid, normalize=normalize)
        assert res.state_integral == mean_state_integral(
            euler_simulate(discretize(prob, grid), res.u_final, bw)
        )

    def test_one_update_is_nonexpansive_when_affine(self):
        # with no cost couplings the update map is affine with factor 1 - rho
        prob = contraction_problem()
        grid = TimeGrid(1.0, 6)
        bw = gen_brownian(2, 64, grid)
        basis = BasisSpec("hypercube", 4)
        rho = 0.3
        rng = np.random.default_rng(1)
        u = StepFunction(grid, rng.normal(size=6))
        v = StepFunction(grid, rng.normal(size=6))
        gp = discretize(prob, grid)

        def one_update(w):
            ens = euler_simulate(gp, w, bw)
            adj = solve_bsde_hat(ens, bw, gp, w, basis)
            grad = gradient(w, ens, adj, gp)
            return StepFunction(grid, w.values - rho * grad.values)

        lhs = linf_dist(one_update(u), one_update(v))
        assert lhs <= linf_dist(u, v) + 1e-14
        assert lhs == pytest.approx((1.0 - rho) * linf_dist(u, v), rel=1e-12)

    def test_one_update_lipschitz_smoke(self):
        # full-cost update with frozen multiplier stays within 1 + rho*C
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 8)
        bw = gen_brownian(5, 400, grid)
        basis = BasisSpec("voronoi", 8)
        gp = discretize(prob, grid)
        psi = solve_psi(grid, gp.b_y)
        rho, mu = 0.1, 0.2
        rng = np.random.default_rng(3)
        u = StepFunction(grid, rng.normal(size=8))
        v = StepFunction(grid, u.values + rng.normal(size=8, scale=0.1))

        def one_update(w):
            ens = euler_simulate(gp, w, bw)
            adj = solve_bsde_hat(ens, bw, gp, w, basis)
            grad = gradient(w, ens, adj, gp)
            half = StepFunction(grid, w.values - rho * grad.values)
            return project_update(half, mu, psi, gp.b_u, rho)

        ratio = linf_dist(one_update(u), one_update(v)) / linf_dist(u, v)
        assert ratio <= 1.0 + rho * 3.0


class TestPathCountFloor:
    def test_error_floor_drops_with_more_paths(self):
        # qualitative check on raw (unnormalized) ensembles: at fixed N the
        # converged control error is noise-dominated at small L and drops
        # when L grows
        prob = example2(alpha=0.1)
        grid = TimeGrid(1.0, 20)
        star = np.array([prob.exact.u_star(t) for t in grid.nodes[:-1]])

        def err(L, seed):
            cfg = SolveConfig(
                rho=0.1,
                eps0=1e-4,
                L=L,
                basis=BasisSpec("voronoi", 10),
                seed=seed,
                normalize_increments=False,
            )
            res = solve(prob, cfg, constant_control(grid, 0.0))
            d = res.u_final.values - star
            return float(np.sqrt(grid.dt * np.dot(d, d)))

        seeds = (1, 2, 3)
        small = np.mean([err(250, s) for s in seeds])
        large = np.mean([err(16_000, s) for s in seeds])
        assert large < small


class TestSetupNames:
    """Timing ``optimizer.gen_brownian`` and ``optimizer.solve_kernels``, as
    perfbench's set-up timer does, covers a solve's whole set-up only if
    every solve calls ``solve_kernels`` once through that name and draws
    every ensemble through ``gen_brownian``: one per solve alone, and one
    per grid and N in a sweep, whose components on that grid reuse it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"gen_brownian": 0, "solve_kernels": 0}
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(optimizer, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, counted)
        return calls

    def test_one_ensemble_and_one_kernel_pair_per_solve(self, calls):
        cfg = SolveConfig(rho=0.1, eps0=1e-4, L=200, basis=BasisSpec("voronoi", 8), seed=3)
        res = solve(example2(alpha=0.1), cfg, constant_control(TimeGrid(1.0, 8), 0.0))
        assert res.iterations > 1
        assert calls == {"gen_brownian": 1, "solve_kernels": 1}
        assert 0.0 <= res.setup_time <= res.wall_time

    def test_sweep_sets_up_once_per_component(self, calls):
        cfg = SweepConfig(
            problem="example1", d=3, N_list=[8], L=200, rho=0.5, eps0=1e-3, basis_K=8
        )
        reports = run_sweep(cfg, write=False)
        assert [list(report.results) for report in reports] == [[8]] * 3
        assert calls == {"gen_brownian": 1, "solve_kernels": 3}


class TestSolveConfig:
    def test_validation(self):
        basis = BasisSpec("voronoi", 4)
        with pytest.raises(ValueError):
            SolveConfig(rho=0.0, eps0=1e-4, L=10, basis=basis, seed=1)
        with pytest.raises(ValueError):
            SolveConfig(rho=0.1, eps0=0.0, L=10, basis=basis, seed=1)
        with pytest.raises(ValueError):
            SolveConfig(rho=0.1, eps0=1e-4, L=10, basis=basis, seed=1, max_iters=0)
        with pytest.raises(ValueError):
            SolveConfig(rho=0.1, eps0=1e-4, L=10, basis=basis, seed=1, rho_schedule="geometric")
        for knob in ("rho", "eps0"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{knob} must be positive and finite"):
                    SolveConfig(**{"rho": 0.1, "eps0": 1e-4, knob: value}, L=10, basis=basis, seed=1)

    def test_rho_schedules(self):
        basis = BasisSpec("voronoi", 4)
        const = SolveConfig(rho=0.4, eps0=1e-4, L=10, basis=basis, seed=1)
        harm = SolveConfig(
            rho=0.4, eps0=1e-4, L=10, basis=basis, seed=1, rho_schedule="harmonic"
        )
        assert const.rho_at(1) == const.rho_at(7) == 0.4
        assert harm.rho_at(1) == 0.4
        assert harm.rho_at(4) == pytest.approx(0.1)


@pytest.mark.parametrize(
    "case, message",
    [
        ("gradient-grid", "control, paths, adjoint and problem must share one grid"),
        ("rho_i=0", "rho_i must be positive"),
        ("rho_i<0", "rho_i must be positive"),
        ("psi-shape", "psi must carry one value per grid node"),
    ],
)
def test_stage_inputs_are_checked(case, message):
    grid = TimeGrid(1.0, 4)
    gp, u = discretize(example2(alpha=0.1), grid), constant_control(grid, 0.0)
    bw = gen_brownian(1, 20, grid)
    ens = euler_simulate(gp, u, bw)
    adj = solve_bsde_hat(ens, bw, gp, u, BasisSpec("voronoi", 4))
    calls = {
        "gradient-grid": lambda: gradient(constant_control(TimeGrid(1.0, 5), 0.0), ens, adj, gp),
        "rho_i=0": lambda: compute_multiplier(1.0, 0.5, 1.0, 0.0),
        "rho_i<0": lambda: compute_multiplier(1.0, 0.5, 1.0, -0.1),
        "psi-shape": lambda: project_update(u, 1.0, np.ones(grid.N), gp.b_u, 0.5),
    }
    with pytest.raises(ValueError) as info:
        calls[case]()
    assert str(info.value) == message
