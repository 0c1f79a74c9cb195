"""Bitwise checks of the sort-based partitions and of the backward pass
against their plain formulation in ``tests.oracles``; the package must agree
with it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socproj.gridfn import TimeGrid, nodal_sample
from socproj.lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    Workspace,
    _linear_quantiles,
    _quantile_plan,
    build_partition,
    solve_bsde_hat,
)
from socproj.optimizer import solve_psi
from socproj.paths import PathEnsemble, euler_simulate, gen_brownian
from socproj.problems import discretize, example1, example2, example3
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
    # quantiles -0.0, 0.0, 0.0 and 1: not strictly increasing, so np.unique
    # merges the tied centers, -0.0 with 0.0
    @example(samples=np.repeat([-0.0, 0.0, 1.0], 5), kind=VORONOI, K=4)
    def test_fields_and_cells_bitwise(self, samples, kind, K):
        spec = BasisSpec(kind, K)
        ref = reference_build_partition(samples, spec)
        cells = np.full(len(samples), -1, dtype=np.intp)
        order = np.full(len(samples), -1, dtype=np.intp)
        part = build_partition(samples, spec, cells, order)
        assert_same_partition(part, ref)
        assert np.array_equal(cells, part.assign(samples))
        assert np.array_equal(part.counts, np.bincount(cells, minlength=part.n_cells))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        samples=step_samples(),
        q=arrays(np.float64, st.integers(1, 20), elements=st.floats(0.0, 1.0)),
    )
    def test_linear_quantiles_match_numpy_on_all_of_0_1(self, samples, q):
        q = np.concatenate(([0.0, 1.0], q))
        got = _linear_quantiles(np.sort(samples), _quantile_plan(len(samples), q))
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


# The sort cache: a carried order may be any permutation of the samples, and
# the partition must not depend on it.

GUESSES = ["identity", "reversed", "random", "exact", "near-sorted"]


@st.composite
def cache_samples(draw):
    """The columns of ``step_samples`` and columns drawn from a few values
    with both signed zeros, so that ties between -0.0 and 0.0 get sorted."""
    if draw(st.booleans()):
        return draw(step_samples())
    values = st.sampled_from([-0.0, 0.0, -0.25, 0.25, 1.0])
    return draw(arrays(np.float64, draw(st.integers(1, 300)), elements=values))


def _guess(kind, samples, rng):
    n = len(samples)
    if kind == "identity":
        return np.arange(n)
    if kind == "reversed":
        return np.arange(n)[::-1].copy()
    if kind == "random":
        return rng.permutation(n)
    guess = np.argsort(samples, kind="stable")
    if kind == "near-sorted":
        for i in rng.integers(0, n, size=3):
            j = min(i + 1, n - 1)
            guess[[i, j]] = guess[[j, i]]
    return guess


class TestSortCache:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        samples=cache_samples(),
        kind=st.sampled_from([HYPERCUBE, VORONOI]),
        K=st.integers(1, 40),
        guess=st.sampled_from(GUESSES),
        seed=st.integers(0, 2**16),
    )
    def test_every_guess_gives_the_cold_cells_and_leaves_a_sort(
        self, samples, kind, K, guess, seed
    ):
        spec = BasisSpec(kind, K)
        n = len(samples)
        cold_cells = np.empty(n, dtype=np.intp)
        cold_order = np.full(n, -1, dtype=np.intp)
        cold = build_partition(samples, spec, cold_cells, cold_order)
        order = _guess(guess, samples, np.random.default_rng(seed))
        given_order = order.copy()
        cells = np.empty(n, dtype=np.intp)
        # any cuts carry the guess; empty ones match no partition's cuts, so
        # the cells are written afresh
        part = build_partition(samples, spec, cells, order, np.empty(0, np.intp))

        assert part.n_cells == cold.n_cells
        assert np.array_equal(cells, cold_cells)
        if kind == HYPERCUBE:
            # a hypercube step sorts nothing and leaves the order alone
            assert np.array_equal(order, given_order)
            assert np.array_equal(cold_order, np.full(n, -1))
            return
        for perm in (order, cold_order):
            assert np.array_equal(np.sort(perm), np.arange(n))
            assert np.all(samples[perm][:-1] <= samples[perm][1:])


    def test_order_contract(self):
        # Without the previous call's cuts no order is known, whatever the
        # order holds (here zeros, not a permutation); an order or a cell
        # array of the wrong length is rejected.  An order handed in with
        # cuts must be a permutation (not checked).
        samples = np.random.default_rng(3).standard_normal(50)
        spec = BasisSpec(VORONOI, 7)
        cold_cells, cold_order = np.empty(50, np.intp), np.full(50, -1, np.intp)
        build_partition(samples, spec, cold_cells, cold_order)
        cells, order = np.empty(50, np.intp), np.zeros(50, np.intp)
        build_partition(samples, spec, cells, order)
        assert np.array_equal(cells, cold_cells)
        assert np.array_equal(order, cold_order)
        for kind in (HYPERCUBE, VORONOI):
            for n_cells, n_order in ((50, 49), (49, 50)):
                with pytest.raises(ValueError, match="one entry per sample"):
                    build_partition(
                        samples,
                        BasisSpec(kind, 7),
                        np.empty(n_cells, np.intp),
                        np.full(n_order, -1, np.intp),
                    )


def test_warm_pass_with_another_ensembles_orders_is_bitwise_cold():
    prob = example3(alpha=0.1)
    grid = TimeGrid(1.0, 16)
    spec = BasisSpec(VORONOI, 12)
    gp = discretize(prob, grid)
    u = nodal_sample(lambda t: 0.3 * (1.0 - t), grid)
    other = gen_brownian(5, 600, grid)
    bw = gen_brownian(31, 600, grid)
    # serving bw resets what the workspace carries, so the first pass
    # leaves orders of the other ensemble's states, which the warm pass on
    # bw's own states must re-sort
    ws = Workspace(600, grid.N)
    solve_bsde_hat(euler_simulate(gp, u, other), bw, gp, u, spec, ws)
    assert np.all(ws._orders >= 0)

    ens = euler_simulate(gp, u, bw)
    warm = solve_bsde_hat(ens, bw, gp, u, spec, ws)
    cold = solve_bsde_hat(ens, bw, gp, u, spec)
    p, q = reference_backward(ens, bw, prob, u, spec)

    for sol in (warm, cold):
        assert np.array_equal(sol.p_hat, p)
        assert np.array_equal(sol.q_hat, q)
    for n in range(grid.N):
        column = ens.states[ws._orders[:, n], n]
        assert np.all(column[:-1] <= column[1:])


def test_carried_order_with_a_sample_across_a_boundary_gives_the_cold_cells():
    samples = np.arange(20.0)
    spec = BasisSpec(VORONOI, 3)
    cells, order = np.empty(20, np.intp), np.full(20, -1, np.intp)
    first = build_partition(samples, spec, cells, order)
    # centers 4.75, 9.5 and 14.25, so boundaries 7.125 and 11.875
    assert cells[7] == 0
    moved = samples.copy()
    moved[7] = 7.5  # still between its neighbours, now past the first boundary
    part = build_partition(moved, spec, cells, order, first.cuts)
    cold_cells = np.empty(20, np.intp)
    build_partition(moved, spec, cold_cells, np.full(20, -1, np.intp))

    assert np.array_equal(order, np.arange(20))
    assert cells[7] == 1
    assert np.array_equal(cells, cold_cells)
    assert np.array_equal(part.counts, [7, 5, 8])


def test_resorted_column_with_the_same_cuts_gives_the_cold_cells():
    samples = np.arange(20.0)
    spec = BasisSpec(VORONOI, 3)
    cells, order = np.empty(20, np.intp), np.full(20, -1, np.intp)
    first = build_partition(samples, spec, cells, order)
    # 7 and 8 sit on either side of the boundary 7.125; swapping them keeps
    # the sorted column, and with it the cuts, but not the carried order
    swapped = samples.copy()
    swapped[[7, 8]] = swapped[[8, 7]]
    part = build_partition(swapped, spec, cells, order, first.cuts)
    cold_cells = np.empty(20, np.intp)
    build_partition(swapped, spec, cold_cells, np.full(20, -1, np.intp))

    assert np.array_equal(part.cuts, first.cuts)
    assert (cells[7], cells[8]) == (1, 0)
    assert np.array_equal(cells, cold_cells)


def test_warm_example1_passes_equal_fresh_cache_passes_bitwise():
    # A new control only shifts example1's states, so the warm pass keeps its
    # carried cells; a strictly increasing cubic map of those states keeps
    # every order but moves some samples across a boundary.
    prob = example1(d=1, mu=0.3, alpha=0.1).components[0]
    grid = TimeGrid(1.0, 16)
    spec = BasisSpec(VORONOI, 30)
    gp = discretize(prob, grid)
    bw = gen_brownian(4242, 2000, grid)
    u = nodal_sample(lambda t: 1.0 - t * t, grid)
    ws = Workspace(2000, grid.N)
    solve_bsde_hat(euler_simulate(gp, u, bw), bw, gp, u, spec, ws)

    u = nodal_sample(lambda t: 1.1 - t * t, grid)
    shifted = euler_simulate(gp, u, bw)
    bent = PathEnsemble(grid, shifted.states + 0.5 * shifted.states**3)
    kept = moved = 0
    for ens in (shifted, bent):
        orders, cuts = ws._orders.copy(), list(ws._cuts)
        warm = solve_bsde_hat(ens, bw, gp, u, spec, ws)
        fresh_ws = Workspace(2000, grid.N)
        fresh = solve_bsde_hat(ens, bw, gp, u, spec, fresh_ws)

        assert np.array_equal(ws._cells, fresh_ws._cells)
        assert np.array_equal(warm.p_hat, fresh.p_hat)
        assert np.array_equal(warm.q_hat, fresh.q_hat)
        same_order = (ws._orders == orders).all(axis=0)
        same_cuts = np.array([np.array_equal(a, b) for a, b in zip(ws._cuts, cuts, strict=True)])
        kept += np.count_nonzero(same_order & same_cuts)
        moved += np.count_nonzero(same_order & ~same_cuts)
    assert kept > 0 and moved > 0
