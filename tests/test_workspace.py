"""One workspace per solve: the arrays it holds change no bit of a result.

A ``Workspace`` is allocated once and every pass writes into it; a
``problems.constant`` sigma takes its noise term from one array per value
and ensemble; the components of a sweep on one grid share the carry;
and with mu = 0 the next Euler pass is skipped.  Each is checked against a
pass in a fresh workspace or a sigma called per step.
"""

import dataclasses
import functools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socproj import lsmc, optimizer
from socproj.bench import SweepConfig, run_sweep
from socproj.gridfn import StepFunction, TimeGrid, constant_control, nodal_sample
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    Workspace,
    solve_bsde_hat,
)
from socproj.optimizer import SolveConfig, solve
from socproj.paths import (
    PathEnsemble,
    SimulationError,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
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
        ws_ens = euler_simulate(gp, constant_control(grid, 0.2), bw, Workspace(50, 6))
        assert calls == []
        assert np.array_equal(ens.states, ws_ens.states)

    def test_noise_is_made_once_per_value_of_sigma_and_its_sign(self):
        ws = Workspace(50, 6)
        ws.serve(gen_brownian(3, 50, TimeGrid(1.0, 6)))
        assert ws.noise(0.1) is ws.noise(0.1)
        plus = np.signbit(ws.noise(0.0))
        assert (np.signbit(ws.noise(-0.0)) != plus).all()


class TestWorkspaceReuse:
    def test_solve_on_a_workspace_another_seed_used_matches_a_fresh_solve(self):
        grid = TimeGrid(1.0, 8)
        ws = Workspace(CFG1.L, 8)
        solve(EXAMPLE1, dataclasses.replace(CFG1, seed=99), constant_control(grid, 0.0), ws)
        used = solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), ws)
        _assert_same_solve(used, solve(EXAMPLE1, CFG1, constant_control(grid, 0.0)))

    def test_solve_after_a_failed_solve_on_the_workspace_matches_a_fresh_solve(self):
        grid = TimeGrid(1.0, 8)
        cfg = SolveConfig(rho=0.1, eps0=1e-4, L=200, basis=BasisSpec(VORONOI, 10), seed=4)
        ws = Workspace(200, 8)
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
        ws = Workspace(CFG1.L, 12)
        solve(example3(alpha=0.1), cfg, constant_control(TimeGrid(1.0, 12), 0.0), ws)
        assert ws.q_hat.any()
        used = solve(EXAMPLE1, cfg, constant_control(grid, 0.0), ws)
        assert not ws.q_hat.any()
        _assert_same_solve(used, solve(EXAMPLE1, cfg, constant_control(grid, 0.0)))

    @pytest.mark.parametrize("held", ["same", "seed", "L", "N", "T", "normalize"])
    def test_solve_reuses_the_held_ensemble_only_for_its_own_key(self, monkeypatch, held):
        # the workspace holds an ensemble drawn for (seed, L, grid, normalize);
        # a solve whose key differs in any part drops it before it draws its own
        seed, L, grid = CFG1.seed, CFG1.L, TimeGrid(1.0, 8)
        key = (seed, L, grid, True)
        other = {
            "same": key,
            "seed": (seed + 1, L, grid, True),
            "L": (seed, L - 100, grid, True),
            "N": (seed, L, TimeGrid(1.0, 4), True),
            "T": (seed, L, TimeGrid(2.0, 8), True),
            "normalize": (seed, L, grid, False),
        }[held]
        ws = Workspace(L, 8)
        dropped = weakref.ref(ws.ensemble(other, functools.partial(gen_brownian, *other)))
        draws = []

        def counted(*args):
            draws.append((args, dropped() is None))
            return gen_brownian(*args)

        monkeypatch.setattr(optimizer, "gen_brownian", counted)
        used = solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), ws)
        assert draws == ([] if held == "same" else [(key, True)])
        assert ws.ensemble(key, lambda: pytest.fail("the solve's ensemble is held")).grid == grid
        _assert_same_solve(used, solve(EXAMPLE1, CFG1, constant_control(grid, 0.0)))

    def test_the_carry_spans_the_components_on_one_grid(self, monkeypatch):
        # example1's two components draw one ensemble, so the second one's
        # first backward pass starts from the partitions the first one left
        carried, build = [], lsmc.build_partition

        def traced_build(samples, spec, cells, order, cuts=None):
            carried.append(cuts is not None)
            return build(samples, spec, cells, order, cuts)

        monkeypatch.setattr(lsmc, "build_partition", traced_build)
        N = 8
        cfg = SweepConfig(problem="example1", N_list=[N], d=2, mu_star=0.3, L=400,
                          rho=0.5, eps0=5e-4, seed=5, basis_kind=VORONOI, basis_K=8)
        first, second = run_sweep(cfg, write=False)
        start = first.rows[0].iterations * N
        assert len(carried) == start + second.rows[0].iterations * N
        assert carried[:N] == [False] * N
        assert carried[start : start + N] == [True] * N

    def test_workspace_of_another_size_is_rejected(self, monkeypatch):
        # the size is checked before the solve draws, so the held ensemble
        # is kept and nothing is drawn
        grid = TimeGrid(1.0, 8)
        draws = []

        def counted(*args):
            draws.append(args)
            return gen_brownian(*args)

        monkeypatch.setattr(optimizer, "gen_brownian", counted)
        for L, N in ((CFG1.L + 1, 8), (CFG1.L, 7)):
            ws = Workspace(L, N)
            old_key = (CFG1.seed, L, TimeGrid(1.0, N), True)
            held = ws.ensemble(old_key, functools.partial(gen_brownian, *old_key))
            with pytest.raises(ValueError, match=f"workspace holds {L} paths of up to {N} steps"):
                solve(EXAMPLE1, CFG1, constant_control(grid, 0.0), ws)
            assert ws.ensemble(old_key, lambda: pytest.fail("the held ensemble was dropped")) is held
        assert draws == []


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
        ws = Workspace(300, 10)
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

    def test_voronoi_after_hypercube_on_one_pair_matches_a_fresh_pass(self, inputs):
        # the hypercube pass overwrites the carried cells of orders that still
        # sort the same states; the third pass, whose cuts equal the first
        # pass's, must not keep those cells as a cache hit
        gp, u, bw = inputs
        ens = euler_simulate(gp, u, bw)
        ws = Workspace(300, 10)
        for kind in (VORONOI, HYPERCUBE, VORONOI):
            spec = BasisSpec(kind, 6)
            got, want = solve_bsde_hat(ens, bw, gp, u, spec, ws), solve_bsde_hat(ens, bw, gp, u, spec)
            assert got.p_hat.tobytes() == want.p_hat.tobytes()
            assert got.q_hat.tobytes() == want.q_hat.tobytes()

    def test_only_a_voronoi_pass_writes_orders_and_a_new_ensemble_drops_its_cuts(self, inputs):
        gp, u, bw = inputs
        ws = Workspace(300, 10)
        ws._orders.fill(7)
        ens = euler_simulate(gp, u, bw, ws)
        solve_bsde_hat(ens, bw, gp, u, BasisSpec(HYPERCUBE, 6), ws)
        assert (ws._orders == 7).all()
        assert ws._cuts == [None] * 10
        solve_bsde_hat(ens, bw, gp, u, BasisSpec(VORONOI, 6), ws)
        assert all(c is not None for c in ws._cuts)
        assert (np.sort(ws._orders, axis=0) == np.arange(300)[:, None]).all()
        euler_simulate(gp, u, gen_brownian(9, 300, bw.grid), ws)
        assert ws._cuts == [None] * 10

    def test_a_pass_that_raises_carries_nothing_it_wrote(self, inputs):
        # the hypercube step on non-finite states writes its cells, then
        # fails counting them; the cuts of the first pass must not make the
        # third keep those cells
        gp, u, bw = inputs
        ens = euler_simulate(gp, u, bw)
        bad = ens.states.copy()
        bad[:, -2] = np.nan
        ws = Workspace(300, 10)
        solve_bsde_hat(ens, bw, gp, u, BasisSpec(VORONOI, 6), ws)
        with pytest.raises(ValueError):
            solve_bsde_hat(PathEnsemble(bw.grid, bad), bw, gp, u, BasisSpec(HYPERCUBE, 6), ws)
        spec = BasisSpec(VORONOI, 6)
        got, want = solve_bsde_hat(ens, bw, gp, u, spec, ws), solve_bsde_hat(ens, bw, gp, u, spec)
        assert got.p_hat.tobytes() == want.p_hat.tobytes()
        assert got.q_hat.tobytes() == want.q_hat.tobytes()

    def test_a_stale_view_raises(self):
        # the second Euler pass overwrites the states the first one returned,
        # and the second backward pass the first one's adjoint
        grid = TimeGrid(1.0, 8)
        gp, bw = discretize(example2(alpha=0.1), grid), gen_brownian(3, 500, grid)
        u1, u2 = constant_control(grid, 0.0), nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
        spec, ws = BasisSpec(VORONOI, 10), Workspace(500, 8)
        e1 = euler_simulate(gp, u1, bw, ws)
        e2 = euler_simulate(gp, u2, bw, ws)
        assert np.shares_memory(e1.states, e2.states)
        adj1 = solve_bsde_hat(e2, bw, gp, u2, spec, ws)
        adj2 = solve_bsde_hat(e2, bw, gp, u2, spec, ws)
        stale_paths = "next Euler pass overwrote it"
        with pytest.raises(ValueError, match=stale_paths):
            solve_bsde_hat(e1, bw, gp, u1, spec, ws)
        with pytest.raises(ValueError, match=stale_paths):
            optimizer.gradient(u1, e1, adj2, gp)
        with pytest.raises(ValueError, match=stale_paths):
            mean_state_integral(e1)
        with pytest.raises(ValueError, match="next backward pass overwrote it"):
            optimizer.gradient(u2, e2, adj1, gp)
        # the current views, and the fresh arrays of a pass without a
        # workspace, stay usable
        optimizer.gradient(u2, e2, adj2, gp)
        mean_state_integral(e2)
        mean_state_integral(euler_simulate(gp, u1, bw))

    def test_a_workspace_follows_a_new_ensemble(self, inputs):
        gp, u, bw = inputs
        other = gen_brownian(9, 300, bw.grid)
        sigma = constant(0.2)
        gp = discretize(_with_sigma(gp.spec, sigma), bw.grid)
        ws = Workspace(300, 10)
        euler_simulate(gp, u, bw, ws)
        again = euler_simulate(gp, u, other, ws)
        assert again.states.tobytes() == euler_simulate(gp, u, other).states.tobytes()


# The problems and ensembles that one workspace serves in turn, all on one
# grid shorter than the workspace: example1, also with sigma 0.2, has a
# constant sigma and no Q-regression, so two of them share an ensemble's
# noise only by value; example2 and example3 regress Q, and example3's noise
# moves the paths' ranks.  The carry on an ensemble spans every problem.
# Each backward pass draws its basis and K.
GRID = TimeGrid(1.0, 8)
PROBLEMS = [discretize(p, GRID) for p in (example2(alpha=0.1), example3(alpha=0.1), EXAMPLE1)]
PROBLEMS.append(discretize(_with_sigma(EXAMPLE1, constant(0.2)), GRID))
ENSEMBLES = [gen_brownian(seed, 80, GRID) for seed in (3, 4)]
PASS = st.tuples(
    st.sampled_from(["euler", "backward"]),
    st.sampled_from(PROBLEMS),
    st.sampled_from(ENSEMBLES),
    st.sampled_from([VORONOI, HYPERCUBE]),
    st.sampled_from([1, 4, 6, 9]),
    st.lists(st.floats(-1.0, 1.0), min_size=GRID.N, max_size=GRID.N),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(PASS, min_size=1, max_size=8))
def test_interleaved_passes_through_one_workspace_match_fresh_passes(passes):
    """Whatever ran in a workspace before, each pass through it gives what the
    same pass gives in a fresh workspace, bit for bit."""
    ws = Workspace(80, GRID.N + 2)
    for stage, gp, bw, kind, K, values in passes:
        u = StepFunction(GRID, np.array(values))
        fresh = euler_simulate(gp, u, bw)
        if stage == "euler":
            assert euler_simulate(gp, u, bw, ws).states.tobytes() == fresh.states.tobytes()
        else:
            spec = BasisSpec(kind, K)
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
