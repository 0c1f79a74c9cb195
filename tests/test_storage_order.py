"""Column-major ensemble storage and the path-order sum rule.

Every per-step ensemble array keeps one time step's L path values in one
contiguous column.  A mean across paths must still add the paths in path
order, which is what ``.mean(axis=0)`` does on a row-major array and not on a
column-major one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socproj.gridfn import TimeGrid, nodal_sample, trapezoid
from socproj.lsmc import VORONOI, BasisSpec, cold_orders, solve_bsde_hat
from socproj.paths import (
    BrownianEnsemble,
    PathEnsemble,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
    path_mean,
)
from socproj.problems import discretize
from tests.oracles import time_varying_problem


# Long columns: the property below runs up to three times this many paths,
# with explicit cases at it and one past it.
LONG = 1024


def row_major_mean(a):
    """The rows added in path order, one at a time from a zero row, then
    divided by L.  A single column is one contiguous run, which numpy sums
    pairwise whatever the layout (see ``path_mean``), so it is reduced the
    same way here."""
    L, M = a.shape
    if M == 1:
        return np.array([np.add.reduce(a[:, 0]) / L])
    total = np.zeros(M)
    for row in a:
        total = total + row
    return total / L


@pytest.fixture(scope="module")
def stages():
    grid = TimeGrid(1.0, 12)
    gp = discretize(time_varying_problem(), grid)
    u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
    bw = gen_brownian(5, LONG + 200, grid)
    ens = euler_simulate(gp, u, bw)
    hat = solve_bsde_hat(
        ens, bw, gp, u, BasisSpec(VORONOI, 8),
        cold_orders(*bw.increments.shape),
    )
    return bw, ens, hat


def test_ensembles_and_adjoints_store_each_step_contiguously(stages):
    bw, ens, hat = stages
    L, N = bw.L, bw.grid.N
    arrays_ = {
        "increments": (bw.increments, (L, N)),
        "states": (ens.states, (L, N + 1)),
        "p_hat": (hat.p_hat, (L, N + 1)),
        "q_hat": (hat.q_hat, (L, N)),
    }
    for name, (a, shape) in arrays_.items():
        assert a.shape == shape, name
        assert a.flags.f_contiguous, name
        assert all(a[:, n].flags.c_contiguous for n in range(shape[1])), name


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("L", [1, 2, 37])
def test_gen_brownian_is_column_major(L, normalize):
    bw = gen_brownian(3, L, TimeGrid(1.0, 5), normalize=normalize)
    assert bw.increments.flags.f_contiguous
    assert not bw.increments.flags.writeable


def test_ensembles_store_a_row_major_array_column_major():
    grid = TimeGrid(1.0, 3)
    rows = np.arange(12.0).reshape(3, 4)
    paths = PathEnsemble(grid=grid, states=rows)
    bw = BrownianEnsemble(grid=grid, seed=0, increments=rows[:, :3], normalized=False)
    for stored, given_ in ((paths.states, rows), (bw.increments, rows[:, :3])):
        assert stored.flags.f_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, given_)


def test_mean_state_integral_is_the_row_major_formula_bitwise(stages):
    _, ens, _ = stages
    want = trapezoid(row_major_mean(ens.states), ens.grid)
    assert mean_state_integral(ens) == want


def test_adjoint_path_mean_is_the_row_major_mean_bitwise(stages):
    _, _, hat = stages
    N = hat.grid.N
    assert np.array_equal(path_mean(hat.p_hat[:, :N]), row_major_mean(hat.p_hat[:, :N]))


# A column-major array, or a view of one like p_hat[:, :N], in any of the
# shapes the solver hands to a path mean.
VIEWS = {
    "whole": lambda a: a,
    "leading columns": lambda a: a[:, :-1] if a.shape[1] > 1 else a,
    "trailing columns": lambda a: a[:, 1:] if a.shape[1] > 1 else a,
    "every other path": lambda a: a[::2],
    "row-major": np.ascontiguousarray,
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 6)),
        elements=st.floats(-1e300, 1e300, allow_subnormal=True),
    ),
    view=st.sampled_from(sorted(VIEWS)),
)
@example(a=np.full((3, 2), -0.0), view="whole")
@example(a=np.array([[1e300, 1e-300], [-1e300, 3.0], [1.0, -1e-300]]), view="whole")
def test_path_mean_adds_in_path_order_small(a, view):
    a = VIEWS[view](np.asfortranarray(a))
    assert np.array_equal(path_mean(a), row_major_mean(a))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    L=st.integers(1, 3 * LONG + 1),
    M=st.integers(1, 8),
    spread=st.integers(0, 250),
    seed=st.integers(0, 2**32 - 1),
    view=st.sampled_from(sorted(VIEWS)),
)
@example(L=LONG, M=3, spread=0, seed=0, view="whole")
@example(L=LONG + 1, M=3, spread=100, seed=1, view="leading columns")
def test_path_mean_adds_in_path_order_across_blocks(L, M, spread, seed, view):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.integers(-spread, spread + 1, size=(L, M))
    a = VIEWS[view](np.asfortranarray(rng.standard_normal((L, M)) * magnitudes))
    assert np.array_equal(path_mean(a), row_major_mean(a))
