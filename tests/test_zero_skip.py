"""The ``ZERO`` derivative sentinel: the work it skips changes no bit."""

import dataclasses
import functools

import numpy as np
import pytest

from socproj import lsmc
from socproj.gridfn import TimeGrid, constant_control
from socproj.lsmc import HYPERCUBE, VORONOI, BasisSpec, solve_bsde_hat
from socproj.optimizer import SolveConfig, solve
from socproj.paths import euler_simulate, gen_brownian
from socproj.problems import ZERO, discretize, example1, example2, example3, vanishes


def _zero(y, u):
    return np.zeros_like(y)


def _full_path(spec):
    """``spec`` with every ``ZERO`` derivative replaced by a plain zero callback,
    which the solver cannot recognize and so evaluates and multiplies."""
    diff = spec.diffusion
    return dataclasses.replace(spec, diffusion=dataclasses.replace(
        diff,
        sigma_y=_zero if diff.sigma_y is ZERO else diff.sigma_y,
        sigma_u=_zero if diff.sigma_u is ZERO else diff.sigma_u,
    ))


def _both_zero(spec):
    return dataclasses.replace(spec, diffusion=dataclasses.replace(
        spec.diffusion, sigma_y=ZERO, sigma_u=ZERO
    ))


CASES = {
    # sigma_y = sigma_u = ZERO
    "example1-d2": (example1(d=2, mu=0.3, alpha=0.1).components, 0.5, VORONOI),
    # sigma_y = ZERO, live sigma_u
    "example2": ((example2(alpha=0.1),), 0.1, VORONOI),
    # live sigma_y, sigma_u = ZERO
    "example3": ((example3(alpha=0.1),), 0.1, HYPERCUBE),
    # both ZERO with b_y = 1 and a state-dependent sigma
    "example3-zero-derivatives": ((_both_zero(example3(alpha=0.1)),), 0.1, HYPERCUBE),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_skipping_zero_derivatives_is_bitwise_exact(case):
    components, rho, kind = CASES[case]
    grid = TimeGrid(1.0, 8)
    cfg = SolveConfig(rho=rho, eps0=1e-3, L=300, basis=BasisSpec(kind, 8), seed=5,
                      max_iters=40)
    for spec in components:
        skip = solve(spec, cfg, constant_control(grid, 0.0))
        full = solve(_full_path(spec), cfg, constant_control(grid, 0.0))
        assert skip.iterations == full.iterations > 1
        assert np.array_equal(skip.u_final.values, full.u_final.values)
        assert skip.mu_final == full.mu_final
        assert skip.state_integral == full.state_integral
        for a, b in zip(skip.history, full.history, strict=True):
            assert np.array_equal(a.u.values, b.u.values)
            assert a.I_hat == b.I_hat and a.mu == b.mu


def test_vanishes_sees_through_wraps_and_only_the_sentinel():
    @functools.wraps(ZERO)
    def counted(*args, **kwargs):
        return ZERO(*args, **kwargs)

    assert vanishes(ZERO) and vanishes(counted)
    assert not vanishes(_zero)
    assert not vanishes(functools.wraps(_zero)(lambda y, u: _zero(y, u)))


@pytest.mark.parametrize(
    "full, per_step", [(False, 1), (True, 2)], ids=["sentinel", "zero-callback"]
)
def test_example1_backward_pass_skips_the_q_regression(monkeypatch, full, per_step):
    spec = example1(d=1, mu=0.3, alpha=0.1).components[0]
    spec = _full_path(spec) if full else spec
    grid = TimeGrid(1.0, 6)
    gp = discretize(spec, grid)
    u = constant_control(grid, 0.5)
    bw = gen_brownian(3, 200, grid)
    ens = euler_simulate(gp, u, bw)
    calls = []
    regress = lsmc.regress

    def counting(*args):
        calls.append(1)
        return regress(*args)

    monkeypatch.setattr(lsmc, "regress", counting)
    sol = solve_bsde_hat(ens, bw, gp, u, BasisSpec(VORONOI, 5))
    assert len(calls) == per_step * grid.N
    if not full:
        assert np.array_equal(sol.q_hat, np.zeros((200, grid.N)))
