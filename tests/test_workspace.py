"""One workspace per solve: the arrays it holds change no bit of a result.

A ``Workspace`` is allocated once and every pass writes into it; a
``problems.constant`` sigma takes its noise term from one array per solve;
and with mu = 0 the next Euler pass is skipped.  Each is checked against a
pass in a fresh workspace or a sigma called per step.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socproj import optimizer
from socproj.gridfn import StepFunction, TimeGrid, constant_control, nodal_sample
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    Workspace,
    solve_bsde_hat,
)
from socproj.optimizer import SolveConfig, solve
from socproj.paths import SimulationError, euler_simulate, gen_brownian
from socproj.problems import (
    ZERO,
    CostDerivatives,
    Diffusion,
    LinearDrift,
    ProblemSpec,
    constant,
    constant_value,
    discretize,
    example1,
    example2,
    example3,
)


def _full(value):
    def sigma(y, u):
        return np.full_like(y, value, dtype=float)

    return sigma


def _with_sigma(spec, sigma):
    return dataclasses.replace(
        spec, diffusion=dataclasses.replace(spec.diffusion, sigma=sigma)
    )


def _assert_same_solve(a, b):
    assert a.iterations == b.iterations
    assert a.u_final.values.tobytes() == b.u_final.values.tobytes()
    assert a.mu_final == b.mu_final
    assert a.state_integral == b.state_integral
    for x, y in zip(a.history, b.history, strict=True):
        assert x.u.values.tobytes() == y.u.values.tobytes()
        assert x.I_hat == y.I_hat and x.mu == y.mu


EXAMPLE1 = example1(d=2, mu=0.3, alpha=0.1).components[1]
CFG1 = SolveConfig(rho=0.5, eps0=5e-4, L=400, basis=BasisSpec(VORONOI, 8), seed=5)


class TestConstantSigma:
    def test_example1_declares_its_noise_constant(self):
        assert constant_value(EXAMPLE1.diffusion.sigma) == 0.1
        y = np.linspace(-1.0, 1.0, 7)
        assert np.array_equal(EXAMPLE1.diffusion.sigma(y, 0.3), np.full(7, 0.1))

    def test_constant_value_sees_through_wraps_and_only_the_sentinel(self):
        sigma = constant(2)
        wrapped = functools.wraps(sigma)(lambda y, u: sigma(y, u))
        assert constant_value(sigma) == constant_value(wrapped) == 2.0
        assert constant_value(_full(2.0)) is None
        assert constant_value(functools.wraps(_full(2.0))(lambda y, u: 0)) is None

    @pytest.mark.parametrize("wrap", [False, True], ids=["sentinel", "wrapped-sentinel"])
    def test_sentinel_solve_matches_a_full_like_callback_bitwise(self, wrap):
        sigma = constant(0.1)
        if wrap:
            inner = sigma
            sigma = functools.wraps(inner)(lambda y, u: inner(y, u))
        grid = TimeGrid(1.0, 8)
        fast = solve(_with_sigma(EXAMPLE1, sigma), CFG1, constant_control(grid, 0.0))
        slow = solve(_with_sigma(EXAMPLE1, _full(0.1)), CFG1, constant_control(grid, 0.0))
        assert fast.iterations > 1
        _assert_same_solve(fast, slow)

    def test_a_constant_sigma_is_never_called(self):
        calls = []
        sigma = constant(0.1)

        @functools.wraps(sigma)
        def counted(y, u):
            calls.append(1)
            return sigma(y, u)

        grid = TimeGrid(1.0, 6)
        gp = discretize(_with_sigma(EXAMPLE1, counted), grid)
        bw = gen_brownian(3, 50, grid)
        ens = euler_simulate(gp, constant_control(grid, 0.2), bw)
        ws_ens = euler_simulate(gp, constant_control(grid, 0.2), bw, Workspace(50, 6, 4))
        assert calls == []
        assert np.array_equal(ens.states, ws_ens.states)


class TestWorkspaceReuse:
    def test_solve_on_a_workspace_another_seed_used_matches_a_fresh_solve(self):
        grid = TimeGrid(1.0, 8)
        ws = Workspace(CFG1.L, 8, 8)
        solve(EXAMPLE1, dataclasses.replace(CFG1, seed=99), constant_control(grid, 0.0), ws)
        used = solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), ws)
        _assert_same_solve(used, solve(EXAMPLE1, CFG1, constant_control(grid, 0.0)))

    def test_solve_after_a_failed_solve_on_the_workspace_matches_a_fresh_solve(self):
        grid = TimeGrid(1.0, 8)
        cfg = SolveConfig(rho=0.1, eps0=1e-4, L=200, basis=BasisSpec(VORONOI, 10), seed=4)
        ws = Workspace(200, 8, 10)
        with pytest.raises(SimulationError, match="diverged at iteration 6"):
            solve(example2(alpha=0.1), dataclasses.replace(cfg, rho=50.0),
                  constant_control(grid, 0.0), ws)
        used = solve(example2(alpha=0.1), cfg, constant_control(grid, 0.0), ws)
        _assert_same_solve(used, solve(example2(alpha=0.1), cfg, constant_control(grid, 0.0)))

    def test_a_larger_workspace_after_a_live_q_regression_matches_a_fresh_solve(self):
        # example3 writes q_hat; example1, which runs no Q-regression, must
        # then read zeros, on the leading columns of a workspace for N = 12
        grid = TimeGrid(1.0, 8)
        basis = BasisSpec(HYPERCUBE, 8)
        cfg = dataclasses.replace(CFG1, basis=basis)
        ws = Workspace(CFG1.L, 12, 8, HYPERCUBE)
        solve(example3(alpha=0.1), cfg, constant_control(TimeGrid(1.0, 12), 0.0), ws)
        assert ws.q_hat.any()
        used = solve(EXAMPLE1, cfg, constant_control(grid, 0.0), ws)
        assert not ws.q_hat.any()
        _assert_same_solve(used, solve(EXAMPLE1, cfg, constant_control(grid, 0.0)))

    def test_workspace_of_another_size_is_rejected(self):
        grid = TimeGrid(1.0, 8)
        for L, N in ((CFG1.L + 1, 8), (CFG1.L, 7)):
            with pytest.raises(ValueError, match="workspace holds"):
                solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), Workspace(L, N, 8))
        with pytest.raises(ValueError, match="workspace must be a Workspace"):
            solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), Workspace(CFG1.L, 8, 8, HYPERCUBE))


class TestPasses:
    @pytest.fixture
    def inputs(self):
        prob = example3(alpha=0.1)
        grid = TimeGrid(1.0, 10)
        u = nodal_sample(lambda t: 0.3 * (1.0 - t), grid)
        return discretize(prob, grid), u, gen_brownian(8, 300, grid)

    def test_passes_without_a_workspace_return_fresh_arrays(self, inputs):
        gp, u, bw = inputs
        spec = BasisSpec(VORONOI, 6)
        a, b = euler_simulate(gp, u, bw), euler_simulate(gp, u, bw)
        assert not np.shares_memory(a.states, b.states)
        p, q = solve_bsde_hat(a, bw, gp, u, spec), solve_bsde_hat(a, bw, gp, u, spec)
        assert not np.shares_memory(p.p_hat, q.p_hat)
        assert not np.shares_memory(p.q_hat, q.q_hat)

    @pytest.mark.parametrize("kind", [VORONOI, HYPERCUBE])
    def test_workspace_passes_match_allocating_passes_bitwise(self, inputs, kind):
        gp, u, bw = inputs
        spec = BasisSpec(kind, 6)
        ws = Workspace(300, 10, 6, kind)
        ens = euler_simulate(gp, u, bw)
        ws_ens = euler_simulate(gp, u, bw, ws)
        assert np.shares_memory(ws_ens.states, ws.states)
        assert not ws_ens.states.flags.writeable and ws.states.flags.writeable
        assert ens.states.tobytes() == ws_ens.states.tobytes()
        want = solve_bsde_hat(ens, bw, gp, u, spec)
        sol = solve_bsde_hat(ens, bw, gp, u, spec, ws)
        assert np.shares_memory(sol.p_hat, ws.p_hat)
        assert not (sol.p_hat.flags.writeable or want.p_hat.flags.writeable)
        assert sol.p_hat.tobytes() == want.p_hat.tobytes()
        assert sol.q_hat.tobytes() == want.q_hat.tobytes()

    def test_a_bound_workspace_follows_a_new_ensemble(self, inputs):
        gp, u, bw = inputs
        other = gen_brownian(9, 300, bw.grid)
        sigma = constant(0.2)
        gp = discretize(_with_sigma(gp.spec, sigma), bw.grid)
        ws = Workspace(300, 10, 6)
        euler_simulate(gp, u, bw, ws)
        again = euler_simulate(gp, u, other, ws)
        assert again.states.tobytes() == euler_simulate(gp, u, other).states.tobytes()

    def test_hypercube_cache_holds_one_cells_column_and_no_orders(self):
        cache = Workspace(100, 12, 5, HYPERCUBE)
        assert cache._orders is None and cache._cells.shape == (100, 1)
        voronoi = Workspace(100, 12, 5)
        assert voronoi._orders.shape == voronoi._cells.shape == (100, 12)


# The (problem, ensemble) pairs that one workspace serves in turn, all on one
# grid shorter than the workspace: example1 has a constant sigma and no
# Q-regression, example2 and example3 regress Q, and example3's noise moves
# the paths' ranks.
GRID = TimeGrid(1.0, 8)
PROBLEMS = [discretize(p, GRID) for p in (example2(alpha=0.1), example3(alpha=0.1), EXAMPLE1)]
ENSEMBLES = [gen_brownian(seed, 80, GRID) for seed in (3, 4)]
PASS = st.tuples(
    st.sampled_from(["euler", "backward"]),
    st.sampled_from(PROBLEMS),
    st.sampled_from(ENSEMBLES),
    st.sampled_from([VORONOI, HYPERCUBE]),
    st.lists(st.floats(-1.0, 1.0), min_size=GRID.N, max_size=GRID.N),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(PASS, min_size=1, max_size=8))
def test_interleaved_passes_through_one_workspace_match_fresh_passes(passes):
    """Whatever ran in a workspace before, each pass through it gives what the
    same pass gives in a fresh workspace, bit for bit."""
    ws = Workspace(80, GRID.N + 2, 6)
    for stage, gp, bw, kind, values in passes:
        u = StepFunction(GRID, np.array(values))
        fresh = euler_simulate(gp, u, bw)
        if stage == "euler":
            assert euler_simulate(gp, u, bw, ws).states.tobytes() == fresh.states.tobytes()
        else:
            spec = BasisSpec(kind, 6)
            got, want = solve_bsde_hat(fresh, bw, gp, u, spec, ws), solve_bsde_hat(fresh, bw, gp, u, spec)
            assert got.p_hat.tobytes() == want.p_hat.tobytes()
            assert got.q_hat.tobytes() == want.q_hat.tobytes()


class TestHalfStepReuse:
    """With mu = 0, u_new is u_half to the byte and the workspace already
    holds its states, so the next Euler pass is skipped."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        simulate = optimizer.euler_simulate

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "euler_simulate", counted)
        return calls

    def test_example2_skips_passes(self, passes):
        cfg = SolveConfig(rho=0.1, eps0=1e-4, L=400, basis=BasisSpec(VORONOI, 10), seed=4)
        res = solve(example2(alpha=0.1), cfg, constant_control(TimeGrid(1.0, 12), 0.0))
        assert res.converged
        assert any(step.mu == 0.0 for step in res.history)
        assert len(passes) < 2 * res.iterations + 1

    def test_example3_skips_none(self, passes):
        cfg = SolveConfig(rho=0.1, eps0=1e-4, L=400, basis=BasisSpec(HYPERCUBE, 10), seed=4)
        res = solve(example3(alpha=0.1), cfg, constant_control(TimeGrid(1.0, 12), 0.0))
        assert res.converged
        assert len(passes) == 2 * res.iterations + 1

    def test_a_zero_that_changes_sign_is_simulated_again(self, passes):
        # u0 = -0.0 with j_u = +0.0 and no adjoint source keeps u_half at
        # -0.0; with b_u = -1 the mu = 0 update adds +0.0 and gives +0.0, so
        # u_new is not u_half to the byte and the final pass must run
        prob = ProblemSpec(
            name="signed-zero",
            drift=LinearDrift(b_y=lambda t: 0.0, b_u=lambda t: -1.0, m=lambda t: 0.0),
            diffusion=Diffusion(sigma=constant(0.1), sigma_y=ZERO, sigma_u=ZERO),
            costs=CostDerivatives(
                h_y=lambda t, y: np.zeros_like(y), j_u=lambda u: 0.0, g=np.zeros_like
            ),
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        cfg = SolveConfig(rho=0.5, eps0=1e-3, L=50, basis=BasisSpec(VORONOI, 4), seed=1)
        res = solve(prob, cfg, constant_control(TimeGrid(1.0, 4), -0.0))
        assert res.iterations == 1 and res.mu_final == 0.0
        assert np.signbit(res.history[0].u.values).tolist() == [False] * 4
        assert len(passes) == 3
