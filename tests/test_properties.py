"""Property tests of the method's invariants on small random problems.

* an indicator regression is the dense least-squares fit on its cells;
* the shift identity P = P_hat + mu*psi, Q = Q_hat links the multiplier
  driver of the reference backward pass to the package's multiplier-free one;
* the multiplier step restores feasibility exactly when sigma does not depend
  on the state and the increments are normalized.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socproj.detode import solve_psi
from socproj.gridfn import StepFunction, TimeGrid, constant_control
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    build_partition,
    regress,
    solve_bsde_hat,
)
from socproj.optimizer import SolveConfig, solve
from socproj.paths import euler_simulate, gen_brownian
from socproj.problems import (
    CostDerivatives,
    Diffusion,
    LinearDrift,
    ProblemSpec,
    discretize,
)
from tests.oracles import reference_backward

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def coefficient(lo=-1.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def random_problem(draw, state_noise):
    """Linear drift with a time-varying b_y, tracking and terminal costs, and
    noise a*u + s0 plus, if ``state_noise``, s*sqrt(1 + y^2)."""
    b0, b1, m, k = (draw(coefficient()) for _ in range(4))
    b_u = draw(coefficient(0.5, 2.0))
    a, s0 = draw(coefficient(0.0, 0.5)), draw(coefficient(0.0, 0.5))
    s = draw(coefficient(0.0, 0.5)) if state_noise else 0.0
    target = draw(coefficient(-2.0, 2.0))
    return ProblemSpec(
        name="random",
        drift=LinearDrift(b_y=lambda t: b0 + b1 * t, b_u=lambda t: b_u, m=lambda t: m),
        diffusion=Diffusion(
            sigma=lambda y, u: a * u + s0 + s * np.sqrt(1.0 + y * y),
            sigma_y=lambda y, u: s * y / np.sqrt(1.0 + y * y),
            sigma_u=lambda y, u: np.full_like(y, a),
        ),
        costs=CostDerivatives(
            h_y=lambda t, y: y - target, j_u=lambda u: u, g=lambda y: k * y
        ),
        y0=draw(coefficient()),
        T=1.0,
        delta=draw(coefficient(-1.0, 2.0)),
    )


def basis_spec():
    return st.builds(
        BasisSpec,
        kind=st.sampled_from([HYPERCUBE, VORONOI]),
        K=st.integers(1, 12),
    )


@PROPERTY
@given(
    x=arrays(np.float64, st.integers(1, 80), elements=coefficient(-5.0, 5.0)),
    spec=basis_spec(),
    data=st.data(),
)
def test_regress_is_dense_indicator_least_squares(x, spec, data):
    z = data.draw(arrays(np.float64, len(x), elements=coefficient(-10.0, 10.0)))
    cells = np.empty(len(x), dtype=np.intp)
    order = np.full(len(x), -1, dtype=np.intp)
    part = build_partition(x, spec, cells, order, np.full(spec.K + 1, -1, dtype=np.intp))
    design = np.zeros((len(x), part.n_cells))
    design[np.arange(len(x)), part.assign(x)] = 1.0
    dense, *_ = np.linalg.lstsq(design, z, rcond=None)
    coef, fitted = regress(cells, z, part.counts, np.empty(len(x)))
    assert np.max(np.abs(coef - dense)) <= 1e-12
    assert np.max(np.abs(fitted - design @ dense)) <= 1e-12


@PROPERTY
@given(
    prob=random_problem(state_noise=True),
    spec=basis_spec(),
    N=st.integers(1, 8),
    L=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    mu=coefficient(0.0, 3.0),
    data=st.data(),
)
def test_shift_identity_links_the_multiplier_driver_to_the_hat_pass(
    prob, spec, N, L, seed, mu, data
):
    grid = TimeGrid(1.0, N)
    u = StepFunction(grid, data.draw(arrays(np.float64, N, elements=coefficient())))
    bw = gen_brownian(seed, L, grid)
    gp = discretize(prob, grid)
    ens = euler_simulate(gp, u, bw)
    psi = solve_psi(grid, gp.b_y)
    hat = solve_bsde_hat(ens, bw, gp, u, spec)
    p, q = reference_backward(ens, bw, prob, u, spec, mu=mu, psi=psi)
    assert np.max(np.abs(p - hat.p_hat - mu * psi[None, :])) <= 1e-10
    assert np.max(np.abs(q - hat.q_hat)) <= 1e-10


@PROPERTY
@given(
    prob=random_problem(state_noise=False),
    N=st.integers(1, 10),
    L=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    rho=coefficient(0.05, 1.0),
    iters=st.integers(1, 3),
    u0=coefficient(-2.0, 2.0),
)
def test_feasibility_restoration_is_exact_for_state_free_sigma(
    prob, N, L, seed, rho, iters, u0
):
    grid = TimeGrid(1.0, N)
    cfg = SolveConfig(
        rho=rho, eps0=1e-300, L=L, basis=BasisSpec(VORONOI, 4), seed=seed, max_iters=iters
    )
    res = solve(prob, cfg, constant_control(grid, u0))
    target = min(res.history[-1].I_hat, prob.delta)
    assert abs(res.state_integral - target) <= 1e-12 * (1.0 + abs(target))
    assert res.feasibility_residual == abs(res.state_integral - target)
    assert res.feasibility_residual <= 1e-12 * (1.0 + abs(target))
