"""Partition, regression and backward-solver tests."""

import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from socproj import lsmc
from socproj.gridfn import TimeGrid, constant_control, nodal_sample
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    Partition,
    Workspace,
    build_partition,
    regress,
    solve_bsde_hat,
)
from socproj.optimizer import solve_psi
from socproj.paths import SimulationError, euler_simulate, gen_brownian
from socproj.problems import (
    CostDerivatives,
    Diffusion,
    LinearDrift,
    ProblemSpec,
    discretize,
    example2,
    example3,
)

from tests.oracles import reference_backward


def partition_and_cells(samples, spec):
    cells = np.empty(len(samples), dtype=np.intp)
    order = np.full(len(samples), -1, dtype=np.intp)
    return build_partition(samples, spec, cells, order), cells


def _unit_source_problem():
    """h_y = 1, no state coupling anywhere: the adjoint telescopes to T - t."""
    return ProblemSpec(
        name="unit-source",
        drift=LinearDrift(
            b_y=lambda t: 0.0,
            b_u=lambda t: 1.0,
            m=lambda t: 0.0,
        ),
        diffusion=Diffusion(
            sigma=lambda y, u: np.full_like(y, 0.4),
            sigma_y=lambda y, u: np.zeros_like(y),
            sigma_u=lambda y, u: np.zeros_like(y),
        ),
        costs=CostDerivatives(
            h_y=lambda t, y: np.ones_like(y),
            j_u=lambda u: u,
            g=lambda y: np.zeros_like(y),
        ),
        y0=0.0,
        T=1.0,
        delta=1e9,
    )


class TestBuildPartition:
    def test_degenerate_sample_collapses(self):
        for kind in (HYPERCUBE, VORONOI):
            part, _ = partition_and_cells(np.full(32, 1.0), BasisSpec(kind, 8))
            assert part.n_cells == 1
            np.testing.assert_array_equal(part.assign(np.full(32, 1.0)), np.zeros(32))

    def test_hypercube_equal_split(self):
        samples = np.array([0.0, 1.0, 2.0, 3.0])
        part, _ = partition_and_cells(samples, BasisSpec(HYPERCUBE, 2))
        np.testing.assert_array_equal(part.assign(samples), [0, 0, 1, 1])
        assert part.lo == 0.0 and part.hi == 3.0

    def test_hypercube_right_closed_last_cell(self):
        samples = np.linspace(0.0, 1.0, 11)
        part, _ = partition_and_cells(samples, BasisSpec(HYPERCUBE, 5))
        assert part.assign(np.array([1.0]))[0] == 4

    def test_voronoi_quantile_centers(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(0.0, 1.0, 4000)
        part, _ = partition_and_cells(samples, BasisSpec(VORONOI, 4))
        # midpoints of the quantile centers 0.2, 0.4, 0.6, 0.8
        np.testing.assert_allclose(part.boundaries, [0.3, 0.5, 0.7], atol=0.05)

    def test_voronoi_tie_goes_to_lower_index(self):
        # centers 0 and 1
        part = Partition(kind=VORONOI, n_cells=2, boundaries=np.array([0.5]))
        assert part.assign(np.array([0.5]))[0] == 0
        assert part.assign(np.array([0.5000001]))[0] == 1

    def test_basis_spec_validation(self):
        with pytest.raises(ValueError):
            BasisSpec("polynomial", 4)
        with pytest.raises(ValueError):
            BasisSpec(HYPERCUBE, 0)


class TestRegress:
    def test_constant_targets(self):
        samples = np.linspace(0.0, 1.0, 50)
        part, cells = partition_and_cells(samples, BasisSpec(HYPERCUBE, 5))
        coef, fitted = regress(cells, np.full(50, 2.5), part.counts, np.empty(50))
        np.testing.assert_allclose(coef, 2.5)
        np.testing.assert_allclose(fitted, 2.5)

    def test_single_cell_is_plain_mean(self):
        samples = np.full(10, 3.0)
        part, cells = partition_and_cells(samples, BasisSpec(VORONOI, 4))
        z = np.arange(10.0)
        coef, fitted = regress(cells, z, part.counts, np.empty(10))
        assert coef[0] == pytest.approx(z.mean())
        np.testing.assert_allclose(fitted, z.mean())

    def test_per_cell_means_hand_value(self):
        part = Partition(kind=HYPERCUBE, n_cells=2, lo=0.0, hi=2.0)
        cells = part.assign(np.array([0.5, 1.5, 1.2]))
        counts = np.bincount(cells, minlength=part.n_cells)
        coef, fitted = regress(cells, np.array([2.0, 4.0, 6.0]), counts, np.empty(3))
        np.testing.assert_allclose(coef, [2.0, 5.0])
        np.testing.assert_allclose(fitted, [2.0, 5.0, 5.0])

    def test_empty_cell_coefficient_zero(self):
        part = Partition(kind=HYPERCUBE, n_cells=4, lo=0.0, hi=4.0)
        x = np.array([0.1, 0.2, 3.9])  # cells 1 and 2 unoccupied
        cells = part.assign(x)
        counts = np.bincount(cells, minlength=part.n_cells)
        coef, _ = regress(cells, np.array([1.0, 3.0, 7.0]), counts, np.empty(3))
        np.testing.assert_allclose(coef, [2.0, 0.0, 0.0, 7.0])

    @pytest.mark.parametrize("kind", [HYPERCUBE, VORONOI])
    def test_matches_dense_least_squares(self, kind):
        rng = np.random.default_rng(8)
        x = rng.normal(size=100)
        z = np.sin(x) + rng.normal(size=100, scale=0.2)
        part, cells = partition_and_cells(x, BasisSpec(kind, 8))
        coef, fitted = regress(cells, z, part.counts, np.empty(100))
        design = np.zeros((100, part.n_cells))
        design[np.arange(100), part.assign(x)] = 1.0
        dense, *_ = np.linalg.lstsq(design, z, rcond=None)
        assert np.max(np.abs(coef - dense)) <= 1e-12
        assert np.max(np.abs(fitted - design @ dense)) <= 1e-12

    def test_reordering_paths_only_moves_roundoff(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=200)
        z = rng.normal(size=200)
        part, cells = partition_and_cells(x, BasisSpec(VORONOI, 6))
        perm = rng.permutation(200)
        coef_a, _ = regress(cells, z, part.counts, np.empty(200))
        coef_b, _ = regress(part.assign(x[perm]), z[perm], part.counts, np.empty(200))
        np.testing.assert_allclose(coef_a, coef_b, rtol=1e-12, atol=1e-14)


class TestBackwardSolver:
    def _inputs(self, prob, n=8, paths=400, seed=21, control=None):
        grid = TimeGrid(1.0, n)
        u = constant_control(grid, 0.0) if control is None else control(grid)
        bw = gen_brownian(seed, paths, grid)
        ens = euler_simulate(discretize(prob, grid), u, bw)
        return grid, u, bw, ens

    def test_zero_data_gives_zero_solution(self):
        prob = _unit_source_problem()
        prob = ProblemSpec(
            name="zero",
            drift=prob.drift,
            diffusion=prob.diffusion,
            costs=CostDerivatives(
                h_y=lambda t, y: np.zeros_like(y),
                j_u=lambda u: u,
                g=lambda y: np.zeros_like(y),
            ),
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        grid, u, bw, ens = self._inputs(prob)
        sol = solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, BasisSpec(HYPERCUBE, 4),
        )
        np.testing.assert_array_equal(sol.p_hat, 0.0)
        np.testing.assert_array_equal(sol.q_hat, 0.0)

    def test_telescoping_constants(self):
        # h_y = 1 with no couplings: P_hat_n = T - t_n in every cell
        prob = _unit_source_problem()
        grid, u, bw, ens = self._inputs(prob, n=10)
        sol = solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, BasisSpec(VORONOI, 6),
        )
        expected = grid.T - grid.nodes
        np.testing.assert_allclose(sol.p_hat, np.broadcast_to(expected, sol.p_hat.shape), atol=1e-12)

    def test_q_hat_clt_bound(self):
        prob = _unit_source_problem()
        grid, u, bw, ens = self._inputs(prob, n=10, paths=800)
        spec = BasisSpec(HYPERCUBE, 8)
        sol = solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, spec,
        )
        for n in range(grid.N):
            part, cells = partition_and_cells(ens.states[:, n], spec)
            counts = np.bincount(cells, minlength=part.n_cells)
            l_min = counts[counts > 0].min()
            bound = 6.0 * grid.T / np.sqrt(grid.dt * l_min)
            assert np.max(np.abs(sol.q_hat[:, n])) <= bound

    def test_hypercube_step_counts_its_cells_once(self, monkeypatch):
        # example3's live sigma_y runs both regressions at every step; they
        # share the one unweighted count of the step's partition
        prob = example3(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob)
        spec = BasisSpec(HYPERCUBE, 4)
        unweighted = []
        bincount = np.bincount

        def counting(x, weights=None, minlength=0):
            unweighted.append(weights is None)
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counting)
        solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, spec,
        )
        # step 0's states all equal y0: one cell, whose count is L uncounted
        assert unweighted.count(True) == grid.N - 1
        assert unweighted.count(False) == 2 * grid.N

    @pytest.mark.parametrize("kind", [VORONOI, HYPERCUBE])
    def test_steps_reach_partition_and_regression_through_the_module(self, monkeypatch, kind):
        # A tracer replaces lsmc.build_partition and lsmc.regress and reads
        # each partition's assign; every step builds one partition through
        # the module namespace, whose assign gives the cells the step uses,
        # also on a second pass whose Voronoi steps keep their carried cells.
        prob = example2(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob)
        spec = BasisSpec(kind, 6)
        calls = {"build_partition": 0, "regress": 0}
        build, fit = lsmc.build_partition, lsmc.regress

        def traced_build(samples, spec, cells, order, cuts):
            calls["build_partition"] += 1
            part = build(samples, spec, cells, order, cuts)
            assert np.array_equal(part.assign(samples), cells)
            return part

        def traced_regress(*args):
            calls["regress"] += 1
            return fit(*args)

        monkeypatch.setattr(lsmc, "build_partition", traced_build)
        monkeypatch.setattr(lsmc, "regress", traced_regress)
        ws = Workspace(*bw.increments.shape)
        for _ in range(2):
            solve_bsde_hat(ens, bw, discretize(prob, grid), u, spec, ws)
        assert calls == {"build_partition": 2 * grid.N, "regress": 4 * grid.N}

    def test_cache_of_another_size_is_rejected(self):
        prob = example2(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob)
        spec = BasisSpec(VORONOI, 5)
        L, N = bw.increments.shape
        # another path count or fewer steps are rejected (more steps serve
        # the leading columns)
        for shape in ((L + 1, N), (L, N - 1)):
            with pytest.raises(ValueError, match="workspace holds"):
                solve_bsde_hat(ens, bw, discretize(prob, grid), u, spec, Workspace(*shape))

    def test_terminal_column_is_raw_g(self):
        prob = example3(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob)
        sol = solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, BasisSpec(HYPERCUBE, 4),
        )
        np.testing.assert_array_equal(sol.p_hat[:, -1], prob.costs.g(ens.states[:, -1]))

    def test_cellmates_share_values(self):
        prob = example2(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob, control=lambda g: nodal_sample(lambda t: 0.5, g))
        spec = BasisSpec(HYPERCUBE, 4)
        sol = solve_bsde_hat(
            ens, bw, discretize(prob, grid), u, spec,
        )
        for n in range(grid.N):
            _, idx = partition_and_cells(ens.states[:, n], spec)
            for c in np.unique(idx):
                assert np.unique(sol.p_hat[idx == c, n]).size == 1

    def test_mu_zero_reproduces_hat_solver_bitwise(self):
        prob = example2(alpha=0.1)
        grid, u, bw, ens = self._inputs(prob)
        gp = discretize(prob, grid)
        psi = solve_psi(grid, gp.b_y)
        hat = solve_bsde_hat(
            ens, bw, gp, u, BasisSpec(VORONOI, 5),
        )
        p, q = reference_backward(ens, bw, prob, u, BasisSpec(VORONOI, 5), 0.0, psi)
        np.testing.assert_array_equal(hat.p_hat, p)
        np.testing.assert_array_equal(hat.q_hat, q)

    @pytest.mark.parametrize("make", [example2, example3], ids=["example2", "example3"])
    def test_shift_identity(self, make):
        prob = make(alpha=0.1)
        grid = TimeGrid(1.0, 20)
        u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
        bw = gen_brownian(77, 500, grid)
        gp = discretize(prob, grid)
        ens = euler_simulate(gp, u, bw)
        psi = solve_psi(grid, gp.b_y)
        spec = BasisSpec(HYPERCUBE, 8)
        hat = solve_bsde_hat(ens, bw, gp, u, spec)
        p, q = reference_backward(ens, bw, prob, u, spec, mu=0.7, psi=psi)
        assert np.max(np.abs(p - hat.p_hat - 0.7 * psi[None, :])) <= 1e-10
        assert np.max(np.abs(q - hat.q_hat)) <= 1e-10

    def test_adjoint_value_improves_under_refinement(self):
        # at the exact control of example2 the time-zero adjoint mean is
        # -(1 + mu*) T; the regressed value improves as (N, L) refine
        prob = example2(alpha=0.1)

        def p0_error(n, paths):
            grid = TimeGrid(1.0, n)
            u = nodal_sample(prob.exact.u_star, grid)
            bw = gen_brownian(13, paths, grid)
            gp = discretize(prob, grid)
            ens = euler_simulate(gp, u, bw)
            sol = solve_bsde_hat(
                ens, bw, gp, u, BasisSpec(VORONOI, 20),
            )
            return abs(float(sol.p_hat[0, 0]) - (-(1.0 + 0.2) * prob.T))

        coarse = p0_error(8, 400)
        fine = p0_error(40, 8000)
        assert fine < coarse

    def test_nonfinite_target_raises(self):
        prob = _unit_source_problem()
        bad = ProblemSpec(
            name="bad",
            drift=prob.drift,
            diffusion=prob.diffusion,
            costs=CostDerivatives(
                h_y=lambda t, y: np.full_like(y, np.nan),
                j_u=lambda u: u,
                g=lambda y: np.zeros_like(y),
            ),
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        grid, u, bw, ens = self._inputs(bad)
        with pytest.raises(SimulationError):
            solve_bsde_hat(
                ens, bw, discretize(bad, grid), u, BasisSpec(HYPERCUBE, 4),
            )

    @pytest.mark.parametrize("kind", [HYPERCUBE, VORONOI])
    @pytest.mark.parametrize(
        "h_bad, g_bad, named",
        [
            ({2: np.nan, 5: np.nan}, 0.0, 5),
            ({0: np.nan}, 0.0, 0),
            # +inf and -inf targets meet as inf - inf on the steps below
            ({3: np.inf, 6: -np.inf}, 0.0, 6),
            ({}, np.nan, 7),
        ],
        ids=["nan-2-5", "nan-0", "inf", "terminal"],
    )
    def test_nonfinite_target_names_the_highest_bad_step(self, kind, h_bad, g_bad, named):
        grid = TimeGrid(1.0, 8)
        bad_at = {float(grid.nodes[n]): v for n, v in h_bad.items()}
        prob = _unit_source_problem()
        bad = ProblemSpec(
            name="bad",
            drift=prob.drift,
            diffusion=prob.diffusion,
            costs=CostDerivatives(
                h_y=lambda t, y: np.full_like(y, bad_at.get(float(t), 1.0)),
                j_u=lambda u: u,
                g=lambda y: np.full_like(y, g_bad),
            ),
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        grid, u, bw, ens = self._inputs(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match=rf"target at step {named}$"):
                solve_bsde_hat(
                    ens, bw, discretize(bad, grid), u, BasisSpec(kind, 4),
                )


@pytest.mark.parametrize(
    "case, message",
    [
        ("no-samples", "need at least one sample"),
        ("grid", "paths, increments, control and problem must share one grid"),
        ("path-count", "paths and increments must share the path count"),
    ],
)
def test_partition_and_pass_inputs_are_checked(case, message):
    prob = example2(alpha=0.1)
    grid = TimeGrid(1.0, 4)
    gp, u, bw = discretize(prob, grid), constant_control(grid, 0.0), gen_brownian(1, 20, grid)
    ens, spec = euler_simulate(gp, u, bw), BasisSpec(VORONOI, 4)
    calls = {
        "no-samples": lambda: build_partition(
            np.empty(0), spec, np.empty(0, np.intp), np.empty(0, np.intp)
        ),
        "grid": lambda: solve_bsde_hat(ens, bw, discretize(prob, TimeGrid(1.0, 5)), u, spec),
        "path-count": lambda: solve_bsde_hat(ens, gen_brownian(1, 21, grid), gp, u, spec),
    }
    with pytest.raises(ValueError) as info:
        calls[case]()
    assert str(info.value) == message


def test_voronoi_sweeps_never_import_numpy_ma():
    """Tied Voronoi centers (step 0, where every path sits at y0, and
    example2's first pass under u0 = 0) merge without ``np.unique``, whose
    masked-array check imports ``numpy.ma``.  Other tests import it, so the
    sweeps run in a fresh interpreter."""
    code = textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(lsmc.__file__))!r})
        import numpy.random
        import socproj
        from socproj.bench import SweepConfig, run_sweep
        before = set(sys.modules)
        run_sweep(SweepConfig(problem="example2", N_list=[4, 8], L=200), write=False)
        run_sweep(SweepConfig(problem="example1", N_list=[4, 8], d=2, mu_star=0.3, L=200),
                  write=False)
        new = sorted(set(sys.modules) - before)
        print(json.dumps(["numpy.ma" in sys.modules, new]))
        """
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    imported_ma, new = json.loads(run.stdout)
    assert not imported_ma, f"the sweeps imported {new}"
