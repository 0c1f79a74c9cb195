"""Bitwise checks of the sort-based partitions and of the backward pass
against their plain formulation in ``tests.oracles``; the package must agree
with it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socproj.detode import solve_psi
from socproj.gridfn import TimeGrid, nodal_sample
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    _linear_quantiles,
    build_partition,
    solve_bsde_hat,
)
from socproj.paths import euler_simulate, gen_brownian
from socproj.problems import discretize, example2, example3
from tests.oracles import (
    reference_backward,
    reference_build_partition,
    time_varying_problem,
)


def assert_same_partition(part, ref):
    assert (part.kind, part.n_cells) == (ref.kind, ref.n_cells)
    assert np.array_equal([part.lo, part.hi], [ref.lo, ref.hi])
    assert (part.boundaries is None) == (ref.boundaries is None)
    if ref.boundaries is not None:
        assert np.array_equal(part.boundaries, ref.boundaries)


FINITE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


# Quarter steps: centers and their midpoints land exactly on sample values.
ON_GRID = st.integers(-8, 8).map(lambda i: 0.25 * i)


@st.composite
def step_samples(draw):
    """A column of states: free floats, a few values with heavy ties (some of
    them on a grid, so samples sit exactly on cell boundaries), or constant."""
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["free", "ties", "grid", "constant"]))
    if shape == "constant":
        return np.full(n, draw(FINITE))
    if shape == "free":
        return draw(arrays(np.float64, n, elements=FINITE))
    values = FINITE if shape == "ties" else ON_GRID
    pool = draw(arrays(np.float64, draw(st.integers(1, 6)), elements=values))
    return pool[draw(arrays(np.intp, n, elements=st.integers(0, len(pool) - 1)))]


class TestSortedPartitionMatchesQuantileOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        samples=step_samples(),
        kind=st.sampled_from([HYPERCUBE, VORONOI]),
        K=st.integers(1, 60),
    )
    # centers 0 and 0.5; the lone 0.25 sits on their boundary, in cell 0
    @example(samples=np.repeat([0.0, 0.25, 0.5], [10, 1, 10]), kind=VORONOI, K=2)
    def test_fields_and_cells_bitwise(self, samples, kind, K):
        spec = BasisSpec(kind, K)
        ref = reference_build_partition(samples, spec)
        cells = np.full(len(samples), -1, dtype=np.intp)
        part = build_partition(samples, spec, cells)
        assert_same_partition(part, ref)
        assert np.array_equal(cells, part.assign(samples))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        samples=step_samples(),
        q=arrays(np.float64, st.integers(1, 20), elements=st.floats(0.0, 1.0)),
    )
    def test_linear_quantiles_match_numpy_on_all_of_0_1(self, samples, q):
        q = np.concatenate(([0.0, 1.0], q))
        got = _linear_quantiles(np.sort(samples), q)
        assert np.array_equal(got, np.quantile(samples, q))


def _example2_voronoi():
    prob = example2(alpha=0.1)
    return prob, BasisSpec(VORONOI, 12), lambda t: 0.4 * (1.0 - t)


def _example3_hypercube():
    # example3's noise alpha*sqrt(1+y^2) feeds q_hat into the BSDE generator
    prob = example3(alpha=0.1)
    return prob, BasisSpec(HYPERCUBE, 10), lambda t: 0.3


def _time_varying_voronoi():
    # b_y = sin t: the driver must read it at the left node of each step
    return time_varying_problem(), BasisSpec(VORONOI, 12), lambda t: 0.4 * (1.0 - t)


@pytest.mark.parametrize(
    "case",
    [_example2_voronoi, _example3_hypercube, _time_varying_voronoi],
    ids=["example2-voronoi", "example3-hypercube", "time-varying"],
)
# "full" runs the reference with its multiplier driver engaged at mu = 0,
# which must still give the package's multiplier-free pass bit for bit.
@pytest.mark.parametrize("full", [False, True], ids=["hat", "full"])
def test_backward_pass_matches_reference_bitwise(case, full):
    prob, spec, u_of_t = case()
    grid = TimeGrid(1.0, 16)
    u = nodal_sample(u_of_t, grid)
    bw = gen_brownian(31, 600, grid)
    gp = discretize(prob, grid)
    ens = euler_simulate(gp, u, bw)
    sol = solve_bsde_hat(ens, bw, gp, u, spec)
    psi = solve_psi(grid, gp.b_y) if full else None
    p, q = reference_backward(ens, bw, prob, u, spec, psi=psi)

    assert np.array_equal(sol.p_hat, p)
    assert np.array_equal(sol.q_hat, q)
