"""The solver reads each drift coefficient only through ``discretize``.

The references below evaluate ``b_y``, ``b_u`` and ``m`` node by node, at the
left node t_n, inside each step, as the scheme is written.  The package reads
them from the arrays ``discretize`` samples once per grid and must agree with
the references bit for bit.
"""

import dataclasses
import functools

import numpy as np
import pytest

from socproj.detode import solve_kernels, solve_psi
from socproj.gridfn import StepFunction, TimeGrid, nodal_sample
from socproj.lsmc import VORONOI, BasisSpec, solve_bsde_hat
from socproj.optimizer import SolveConfig, gradient, project_update, solve
from socproj.paths import euler_simulate, gen_brownian
from socproj.problems import LinearDrift, discretize, example1, example2, vanishes
from tests.oracles import reference_backward, time_varying_problem


def reference_euler_simulate(problem, control, bw):
    grid = bw.grid
    dt = grid.dt
    drift, diff = problem.drift, problem.diffusion
    by = [float(drift.b_y(t)) for t in grid.nodes[:-1]]
    bu = [float(drift.b_u(t)) for t in grid.nodes[:-1]]
    m = [float(drift.m(t)) for t in grid.nodes[:-1]]
    states = np.empty((bw.L, grid.N + 1))
    states[:, 0] = problem.y0
    for n in range(grid.N):
        y = states[:, n]
        u = float(control.values[n])
        states[:, n + 1] = (
            y
            + (by[n] * y + bu[n] * u + m[n]) * dt
            + diff.sigma(y, u) * bw.increments[:, n]
        )
    return states


def reference_gradient(control, paths, adj, problem):
    grid = control.grid
    drift, diff, costs = problem.drift, problem.diffusion, problem.costs
    mean_p = adj.p_hat[:, : grid.N].mean(axis=0)
    vals = np.empty(grid.N)
    for n in range(grid.N):
        tn = float(grid.nodes[n])
        un = float(control.values[n])
        q_term = float(np.mean(adj.q_hat[:, n] * diff.sigma_u(paths.states[:, n], un)))
        vals[n] = mean_p[n] * float(drift.b_u(tn)) + q_term + costs.j_u(un)
    return vals


def reference_project_update(u_half, mu, psi, b_u, rho_i):
    grid = u_half.grid
    bu = np.array([float(b_u(t)) for t in grid.nodes[:-1]])
    return u_half.values - rho_i * mu * psi[:-1] * bu


def reference_solve_psi(grid, b_y):
    dt = grid.dt
    psi = np.zeros(grid.N + 1)
    for n in range(grid.N - 1, -1, -1):
        psi[n] = psi[n + 1] + (1.0 + psi[n + 1] * float(b_y(grid.nodes[n]))) * dt
    return psi


def reference_solve_varphi_tilde(grid, b_y, b_u, psi):
    dt = grid.dt
    v = np.zeros(grid.N + 1)
    for n in range(grid.N):
        t = grid.nodes[n]
        v[n + 1] = v[n] + (float(b_y(t)) * v[n] + float(b_u(t)) ** 2 * psi[n]) * dt
    return v


CASES = pytest.mark.parametrize(
    "make",
    [time_varying_problem, lambda: example2(alpha=0.1)],
    ids=["time-varying", "example2"],
)


@CASES
def test_discretize_samples_each_coefficient_at_the_left_nodes(make):
    prob = make()
    grid = TimeGrid(1.0, 16)
    gp = discretize(prob, grid)
    assert gp.spec is prob and gp.grid == grid
    for name in ("b_y", "b_u", "m"):
        values = getattr(gp, name)
        f = getattr(prob.drift, name)
        assert np.array_equal(values, [float(f(t)) for t in grid.nodes[:-1]])
        assert not values.flags.writeable


@CASES
def test_solver_stages_match_node_by_node_reference_bitwise(make):
    prob = make()
    grid = TimeGrid(1.0, 16)
    gp = discretize(prob, grid)
    u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
    bw = gen_brownian(5, 300, grid)

    ens = euler_simulate(gp, u, bw)
    assert np.array_equal(ens.states, reference_euler_simulate(prob, u, bw))

    kern = solve_kernels(grid, gp.b_y, gp.b_u)
    assert np.array_equal(solve_psi(grid, gp.b_y), kern.psi)
    psi = reference_solve_psi(grid, prob.drift.b_y)
    assert np.array_equal(kern.psi, psi)
    varphi = reference_solve_varphi_tilde(grid, prob.drift.b_y, prob.drift.b_u, psi)
    assert np.array_equal(kern.varphi_tilde, varphi)

    adj = solve_bsde_hat(
        ens, bw, gp, u, BasisSpec(VORONOI, 8),
    )
    grad = gradient(u, ens, adj, gp)
    assert np.array_equal(grad.values, reference_gradient(u, ens, adj, prob))

    u_half = StepFunction(grid, u.values - 0.1 * grad.values)
    got = project_update(u_half, 0.7, psi, gp.b_u, 0.1)
    want = reference_project_update(u_half, 0.7, psi, prob.drift.b_u, 0.1)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("y0", [0.0, -0.0, 0.7])
@pytest.mark.parametrize(
    "make",
    [lambda: example1(d=1, mu=0.3, alpha=0.1).components[0], lambda: example2(alpha=0.1)],
    ids=["example1-m0", "example2"],
)
def test_euler_with_zero_b_y_matches_node_by_node_reference_bitwise(make, y0, noise):
    # b_y = 0 on every step; the control is 0 on the second half of the grid
    # and example1's m is 0, so a step may add an all-zero drift.  Without
    # noise from y0 = 0 the first step is the drift alone, so no state's
    # rounding hides a slip in it.
    prob = dataclasses.replace(make(), y0=y0)
    if not noise:
        prob = dataclasses.replace(prob, diffusion=dataclasses.replace(
            prob.diffusion, sigma=lambda y, u: np.zeros_like(y)
        ))
    grid = TimeGrid(1.0, 12)  # dt = 1/12: scaling by dt rounds
    gp = discretize(prob, grid)
    assert not gp.b_y.any()
    u = nodal_sample(lambda t: 0.4 * (1.0 - t) if t < 0.5 else 0.0, grid)
    bw = gen_brownian(5, 300, grid)
    ens = euler_simulate(gp, u, bw)
    assert np.array_equal(ens.states, reference_euler_simulate(prob, u, bw))


def test_euler_with_negative_zero_b_y_keeps_the_sign_of_a_zero_state():
    # -0.0 * -0.0 = +0.0 turns the drift's -0.0 terms into +0.0, so a step
    # that dropped b_y y would leave the state at -0.0 instead
    prob = example1(d=1, mu=0.3, alpha=0.1).components[0]
    prob = dataclasses.replace(
        prob,
        y0=-0.0,
        drift=LinearDrift(b_y=lambda t: -0.0, b_u=lambda t: 1.0, m=lambda t: -0.0),
        diffusion=dataclasses.replace(prob.diffusion, sigma=lambda y, u: np.zeros_like(y)),
    )
    grid = TimeGrid(1.0, 4)
    gp = discretize(prob, grid)
    u = StepFunction(grid, np.full(4, -0.0))
    ens = euler_simulate(gp, u, gen_brownian(5, 3, grid))
    want = reference_euler_simulate(prob, u, gen_brownian(5, 3, grid))
    assert np.array_equal(np.signbit(ens.states), np.signbit(want))
    assert not np.signbit(ens.states[:, 1:]).any()


def _example2_h_y_returns_its_states():
    # h_y hands back the read-only states column itself, so a generator
    # built in place in h_y's result would fail
    prob = example2(alpha=0.1)
    return dataclasses.replace(
        prob, costs=dataclasses.replace(prob.costs, h_y=lambda t, y: y)
    )


@pytest.mark.parametrize("b_y", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no-noise"])
@pytest.mark.parametrize("y0", [0.0, -0.0, 0.7])
@pytest.mark.parametrize(
    "make",
    [
        lambda: example1(d=1, mu=0.3, alpha=0.1).components[0],
        lambda: example2(alpha=0.1),
        _example2_h_y_returns_its_states,
    ],
    ids=["example1-m0", "example2", "example2-h_y-identity"],
)
def test_backward_with_zero_b_y_matches_reference_bitwise(make, y0, noise, b_y):
    # The generator drops p b_y on a step with b_y = 0.0 of either sign; the
    # reference always adds it.  Both must give the reference's fits, sign
    # bits included.
    prob = make()
    prob = dataclasses.replace(
        prob, y0=y0, drift=dataclasses.replace(prob.drift, b_y=lambda t: b_y)
    )
    if not noise:
        prob = dataclasses.replace(prob, diffusion=dataclasses.replace(
            prob.diffusion, sigma=lambda y, u: np.zeros_like(y)
        ))
    grid = TimeGrid(1.0, 12)
    gp = discretize(prob, grid)
    assert np.array_equal(np.signbit(gp.b_y), np.full(grid.N, np.signbit(b_y)))
    u = nodal_sample(lambda t: 0.4 * (1.0 - t) if t < 0.5 else 0.0, grid)
    bw = gen_brownian(5, 300, grid)
    ens = euler_simulate(gp, u, bw)
    spec = BasisSpec(VORONOI, 8)
    sol = solve_bsde_hat(ens, bw, gp, u, spec)
    p, q = reference_backward(ens, bw, prob, u, spec)
    if vanishes(prob.diffusion.sigma_y) and vanishes(prob.diffusion.sigma_u):
        q = np.zeros_like(q)  # example1 runs no Q-regression
    for got, want in ((sol.p_hat, p), (sol.q_hat, q)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_gradient_q_term_matches_reference_bitwise():
    # with p_hat = 0 and j_u = 0 the gradient is the Q-term alone, so no O(1)
    # addend rounds away a 1e-18 slip such as mean(q) * sigma_u for mean(q * sigma_u)
    prob = example2(alpha=0.1)
    prob = dataclasses.replace(
        prob, costs=dataclasses.replace(prob.costs, j_u=lambda u: 0.0)
    )
    grid = TimeGrid(1.0, 16)
    gp = discretize(prob, grid)
    u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
    bw = gen_brownian(5, 300, grid)
    ens = euler_simulate(gp, u, bw)
    adj = solve_bsde_hat(
        ens, bw, gp, u, BasisSpec(VORONOI, 8),
    )
    adj = dataclasses.replace(adj, p_hat=np.zeros_like(adj.p_hat))
    assert np.count_nonzero(adj.q_hat[:, : grid.N]) > 0
    grad = gradient(u, ens, adj, gp)
    assert np.array_equal(grad.values, reference_gradient(u, ens, adj, prob))


def test_solve_samples_the_drift_once():
    prob = time_varying_problem()
    calls = {"b_y": 0, "b_u": 0, "m": 0}

    def counted(name, f):
        @functools.wraps(f)
        def call(t):
            calls[name] += 1
            return f(t)

        return call

    drift = LinearDrift(
        **{name: counted(name, getattr(prob.drift, name)) for name in calls}
    )
    prob = dataclasses.replace(prob, drift=drift)
    grid = TimeGrid(1.0, 12)
    cfg = SolveConfig(
        rho=0.1, eps0=1e-12, L=50, basis=BasisSpec(VORONOI, 4), seed=3, max_iters=4
    )
    res = solve(prob, cfg, nodal_sample(lambda t: 0.0, grid))
    assert res.iterations == 4
    assert calls == {"b_y": grid.N, "b_u": grid.N, "m": grid.N}
