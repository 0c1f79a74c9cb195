"""Column-major ensemble storage.

Every per-step ensemble array has shape (L, steps) and keeps one time step's
L path values in one contiguous column.  A mean over paths is
``.mean(axis=0)`` on the stored array, a pairwise sum down each column that
needs no copy of the ensemble.
"""

import tracemalloc

import numpy as np
import pytest

from socproj.gridfn import TimeGrid, nodal_sample
from socproj.lsmc import VORONOI, BasisSpec, Workspace, solve_bsde_hat
from socproj.optimizer import gradient
from socproj.paths import (
    BrownianEnsemble,
    PathEnsemble,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
from socproj.problems import discretize
from tests.oracles import time_varying_problem


@pytest.fixture(scope="module")
def stages():
    grid = TimeGrid(1.0, 16)
    gp = discretize(time_varying_problem(), grid)
    u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
    bw = gen_brownian(5, 10_000, grid)
    ens = euler_simulate(gp, u, bw)
    hat = solve_bsde_hat(
        ens, bw, gp, u, BasisSpec(VORONOI, 8),
    )
    return gp, u, bw, ens, hat


def test_ensembles_and_adjoints_store_each_step_contiguously(stages):
    _, _, bw, ens, hat = stages
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
    bw = BrownianEnsemble(grid=grid, increments=rows[:, :3])
    for stored, given_ in ((paths.states, rows), (bw.increments, rows[:, :3])):
        assert stored.flags.f_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, given_)


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", ["mean_state_integral", "gradient"])
def test_path_means_copy_no_ensemble(stages, stage):
    """A mean over paths reads the stored columns in place: the peak traced
    allocation stays far below one (L, N+1) state array (1.36 MB here), where
    a copy of the ensemble would reach about its full size."""
    gp, u, _, ens, hat = stages
    calls = {
        "mean_state_integral": lambda: mean_state_integral(ens),
        "gradient": lambda: gradient(u, ens, hat, gp),
    }
    assert _peak_bytes(calls[stage]) < ens.states.nbytes / 4


@pytest.mark.parametrize("stage", ["euler_simulate", "solve_bsde_hat"])
def test_warm_passes_through_a_workspace_allocate_no_ensemble(stage):
    """A pass through a bound workspace writes into its arrays: after a first
    pass has bound it, the peak traced allocation of another stays far below
    one (L, N+1) state array (1.31 MB here).  What remains are per-step
    columns, most of them the problem's own callbacks' temporaries."""
    grid = TimeGrid(1.0, 40)
    gp = discretize(time_varying_problem(), grid)
    u = nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
    bw = gen_brownian(5, 4000, grid)
    spec = BasisSpec(VORONOI, 8)
    ws = Workspace(bw.L, grid.N)
    ens = euler_simulate(gp, u, bw)
    calls = {
        "euler_simulate": lambda: euler_simulate(gp, u, bw, ws),
        "solve_bsde_hat": lambda: solve_bsde_hat(ens, bw, gp, u, spec, ws),
    }
    calls[stage]()
    assert _peak_bytes(calls[stage]) < ens.states.nbytes / 4
