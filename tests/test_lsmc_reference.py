"""Bitwise checks of the sort-based partitions and of the backward pass.

The references below are the plain formulation of the same estimator:
quantile centers from ``np.quantile``, cells from an unsorted
``searchsorted`` per regression, and a backward recursion that assigns the
samples again for each of its two regressions and calls ``b_y`` at each t_n
itself.  The package must agree with them bit for bit.
"""

import math

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
    Partition,
    _linear_quantiles,
    build_partition,
    solve_bsde_full,
    solve_bsde_hat,
)
from socproj.paths import euler_simulate, gen_brownian
from socproj.problems import discretize, example2, example3
from tests.oracles import time_varying_problem


def reference_build_partition(samples, spec, which="P", step=0, dt=None):
    samples = np.asarray(samples, dtype=float)
    k = spec.K if which == "P" else spec.k_for_q
    lo, hi = float(samples.min()), float(samples.max())
    if hi == lo:
        return Partition(step=step, kind=spec.kind, n_cells=1, lo=lo, hi=hi)
    if spec.tau_rule:
        k = max(1, math.ceil((hi - lo) / dt**1.5))
    if spec.kind == HYPERCUBE:
        return Partition(step=step, kind=HYPERCUBE, n_cells=k, lo=lo, hi=hi)
    qs = np.quantile(samples, np.arange(1, k + 1) / (k + 1))
    centers = np.unique(qs)
    if len(centers) == 1:
        return Partition(step=step, kind=VORONOI, n_cells=1, lo=lo, hi=hi)
    boundaries = 0.5 * (centers[:-1] + centers[1:])
    return Partition(
        step=step,
        kind=VORONOI,
        n_cells=len(centers),
        lo=lo,
        hi=hi,
        centers=centers,
        boundaries=boundaries,
    )


def reference_regress(partition, x, z):
    idx = partition.assign(np.asarray(x, dtype=float))
    counts = np.bincount(idx, minlength=partition.n_cells)
    sums = np.bincount(idx, weights=z, minlength=partition.n_cells)
    coef = np.divide(sums, counts, out=np.zeros(partition.n_cells), where=counts > 0)
    return coef, coef[idx]


def reference_backward(paths, bw, problem, control, spec, mu=0.0, psi=None):
    """(p, q, partitions, coefficients) of the recursion in ``socproj.lsmc``."""
    grid = paths.grid
    N, L, dt = grid.N, paths.L, grid.dt
    y, dw = paths.states, bw.increments
    drift, diff, costs = problem.drift, problem.diffusion, problem.costs
    p = np.empty((L, N + 1))
    q = np.empty((L, N))
    p[:, N] = costs.g(y[:, N])
    partitions, coefficients = [None] * N, [None] * N
    shared = spec.K_tilde is None or spec.K_tilde == spec.K
    for n in range(N - 1, -1, -1):
        yn = y[:, n]
        tn = float(grid.nodes[n])
        un = float(control.values[n])
        part_p = reference_build_partition(yn, spec, "P", step=n, dt=dt)
        part_q = part_p if shared else reference_build_partition(yn, spec, "Q", step=n, dt=dt)
        p_next = p[:, n + 1]
        if psi is None:
            target_q = dw[:, n] * p_next / dt
        else:
            target_q = dw[:, n] * (p_next - mu * psi[n + 1]) / dt
        q_coef, q_fit = reference_regress(part_q, yn, target_q)
        f = (
            costs.h_y(tn, yn)
            + p_next * float(drift.b_y(tn))
            + q_fit * diff.sigma_y(yn, un)
            + mu
        )
        p_coef, p_fit = reference_regress(part_p, yn, p_next + f * dt)
        p[:, n] = p_fit
        q[:, n] = q_fit
        partitions[n] = (part_p, part_q)
        coefficients[n] = (p_coef, q_coef)
    return p, q, partitions, coefficients


def assert_same_partition(part, ref):
    assert (part.step, part.kind, part.n_cells) == (ref.step, ref.kind, ref.n_cells)
    assert np.array_equal([part.lo, part.hi], [ref.lo, ref.hi])
    for name in ("centers", "boundaries"):
        got, want = getattr(part, name), getattr(ref, name)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


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
        K_tilde=st.integers(1, 60),
        which=st.sampled_from(["P", "Q"]),
        tau_rule=st.booleans(),
        dt=st.sampled_from([0.025, 0.1, 0.25, 0.5]),
    )
    # centers 0 and 0.5; the lone 0.25 sits on their boundary, in cell 0
    @example(
        samples=np.repeat([0.0, 0.25, 0.5], [10, 1, 10]),
        kind=VORONOI, K=2, K_tilde=2, which="P", tau_rule=False, dt=0.1,
    )
    def test_fields_and_cells_bitwise(self, samples, kind, K, K_tilde, which, tau_rule, dt):
        spec = BasisSpec(kind, K, K_tilde=K_tilde, tau_rule=tau_rule)
        ref = reference_build_partition(samples, spec, which, step=3, dt=dt)
        cells = np.full(len(samples), -1, dtype=np.intp)
        part = build_partition(samples, spec, which, step=3, dt=dt, cells=cells)
        assert_same_partition(part, ref)
        assert np.array_equal(cells, part.assign(samples))
        assert_same_partition(build_partition(samples, spec, which, step=3, dt=dt), ref)

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


def _separate_q_partition():
    prob = example2(alpha=0.1)
    return prob, BasisSpec(VORONOI, 12, K_tilde=5), lambda t: 0.2 + t


@pytest.mark.parametrize(
    "case",
    [_example2_voronoi, _example3_hypercube, _time_varying_voronoi, _separate_q_partition],
    ids=["example2-voronoi", "example3-hypercube", "time-varying", "k-tilde-differs"],
)
@pytest.mark.parametrize("full", [False, True], ids=["hat", "full"])
def test_backward_pass_matches_reference_bitwise(case, full):
    prob, spec, u_of_t = case()
    grid = TimeGrid(1.0, 16)
    u = nodal_sample(u_of_t, grid)
    bw = gen_brownian(31, 600, grid)
    gp = discretize(prob, grid)
    ens = euler_simulate(gp, u, bw)
    if full:
        psi = solve_psi(grid, gp.b_y)
        sol = solve_bsde_full(ens, bw, gp, u, spec, mu=0.7, psi=psi)
        p, q, partitions, coefficients = reference_backward(
            ens, bw, prob, u, spec, mu=0.7, psi=psi
        )
    else:
        sol = solve_bsde_hat(ens, bw, gp, u, spec)
        p, q, partitions, coefficients = reference_backward(ens, bw, prob, u, spec)

    assert np.array_equal(sol.p_hat, p)
    assert np.array_equal(sol.q_hat, q)
    for n in range(grid.N):
        for got, want in zip(sol.coefficients[n], coefficients[n]):
            assert np.array_equal(got, want)
        for part, ref in zip(sol.partitions[n], partitions[n]):
            assert_same_partition(part, ref)
            # nothing sized by the path count rides on a kept partition
            arrays_kept = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
            assert all(a.size < ens.L for a in arrays_kept)
    if spec.K_tilde not in (None, spec.K):
        assert any(pp.n_cells != pq.n_cells for pp, pq in sol.partitions)
