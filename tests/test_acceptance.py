"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines; tolerances are fixed here and are not tuned per machine.
"""

import time

import numpy as np
import pytest

import socproj as sp
from socproj.lsmc import build_partition, regress
from socproj.optimizer import gradient, solve_psi

from tests.oracles import (
    analytic_psi_constant,
    check_kernel_identity,
    fit_order,
    reference_backward,
)

SEED = 12345

# Published control/multiplier error columns for N = 8, 12, 16, 20, 30, 40.
N_LIST = [8, 12, 16, 20, 30, 40]
TABLE2 = {
    "hypercube": {
        "control": [2.57203e-2, 1.73583e-2, 1.30960e-2, 1.05151e-2, 7.04469e-3, 5.30063e-3],
        "multiplier": [4.49237e-2, 3.10487e-2, 2.38207e-2, 1.88635e-2, 1.27467e-2, 9.27519e-3],
    },
    "voronoi": {
        "control": [2.56788e-2, 1.73326e-2, 1.30837e-2, 1.05093e-2, 7.04458e-3, 5.29884e-3],
        "multiplier": [4.24494e-2, 2.90962e-2, 2.24400e-2, 1.82058e-2, 1.20292e-2, 9.24822e-3],
    },
}
TABLE4_VP_MULT = [5.14559e-2, 3.56011e-2, 2.75531e-2, 2.22703e-2, 1.49390e-2, 1.13490e-2]


def _verdict(cid: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid} ({name}): {detail}"


@pytest.fixture(scope="module")
def table2_reports():
    out = {}
    t0 = time.perf_counter()
    for kind in ("voronoi", "hypercube"):
        cfg = sp.SweepConfig(
            problem="example2",
            N_list=N_LIST,
            L=2000,
            rho=0.1,
            eps0=1e-4,
            seed=SEED,
            basis_kind=kind,
            basis_K=30,
        )
        out[kind] = sp.run_sweep(cfg, write=False)[0]
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def example1_reports():
    t0 = time.perf_counter()
    cfg = sp.SweepConfig(
        problem="example1",
        d=5,
        mu_star=0.3,
        alpha=0.1,
        N_list=N_LIST,
        L=10_000,
        rho=0.5,
        eps0=5e-4,
        seed=SEED,
        basis_kind="voronoi",
        basis_K=30,
    )
    reports = sp.run_sweep(cfg, write=False)
    return reports, time.perf_counter() - t0


def test_criterion_1_table2_reproduction(table2_reports):
    problems = []
    for kind in ("voronoi", "hypercube"):
        report = table2_reports[kind]
        ctrl_col = TABLE2[kind]["control"]
        mult_col = TABLE2[kind]["multiplier"]
        for row, ref_c, ref_m in zip(report.rows, ctrl_col, mult_col):
            if not (0.5 * ref_c <= row.control_error <= 2.0 * ref_c):
                problems.append(f"{kind} N={row.N} control {row.control_error:.3e} vs {ref_c:.3e}")
            if not (0.5 * ref_m <= row.multiplier_error <= 2.0 * ref_m):
                problems.append(f"{kind} N={row.N} multiplier {row.multiplier_error:.3e} vs {ref_m:.3e}")
            if abs(row.state_integral - 0.16543) > 1e-4:
                problems.append(f"{kind} N={row.N} integral {row.state_integral:.6f}")
        oc = fit_order(report, "control_error")
        om = fit_order(report, "multiplier_error")
        if not 0.85 <= oc <= 1.15:
            problems.append(f"{kind} control order {oc:.3f}")
        if not 0.8 <= om <= 1.2:
            problems.append(f"{kind} multiplier order {om:.3f}")
    elapsed = table2_reports["elapsed"]
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    detail = (
        f"both bases within x2 of the published columns, orders "
        f"ctrl={fit_order(table2_reports['voronoi'], 'control_error'):.2f}/"
        f"{fit_order(table2_reports['hypercube'], 'control_error'):.2f}, "
        f"integrals at 0.16543, {elapsed:.1f}s"
        if not problems
        else "; ".join(problems)
    )
    _verdict(1, "table-2 reproduction", not problems, detail)


def test_criterion_2_five_component_tracking(example1_reports):
    reports, elapsed = example1_reports
    deltas = [5.0 / (12.0 * n) for n in range(1, 6)]
    problems = []
    orders = []
    for k, report in enumerate(reports):
        oc = fit_order(report, "control_error")
        om = fit_order(report, "multiplier_error")
        orders.append((oc, om))
        if not 0.8 <= oc <= 1.2:
            problems.append(f"component {k + 1} control order {oc:.3f}")
        if not 0.75 <= om <= 1.25:
            problems.append(f"component {k + 1} multiplier order {om:.3f}")
        for row in report.rows:
            if row.state_integral > deltas[k] + 1e-6:
                problems.append(
                    f"component {k + 1} N={row.N} integral {row.state_integral} > delta"
                )
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    detail = (
        "orders " + ", ".join(f"({a:.2f},{b:.2f})" for a, b in orders)
        + f"; all integrals feasible; {elapsed:.1f}s"
        if not problems
        else "; ".join(problems)
    )
    _verdict(2, "five-component tracking", not problems, detail)


def test_criterion_3_delta_sweep_and_multiplier_trend():
    problems = []
    worst = {}
    for delta in (1.0, 0.5):
        cfg = sp.SweepConfig(
            problem="example3",
            delta=delta,
            N_list=N_LIST,
            L=2000,
            rho=1.0,
            rho_schedule="harmonic",
            eps0=1e-5,
            max_iters=2000,
            seed=SEED,
            basis_kind="voronoi",
            basis_K=30,
        )
        report = sp.run_sweep(cfg, write=False)[0]
        gap = max(abs(row.state_integral - delta) for row in report.rows)
        worst[delta] = gap
        if gap > 1e-3:
            problems.append(f"delta={delta}: worst integral gap {gap:.2e}")

    cfg = sp.SweepConfig(
        problem="example3",
        N_list=N_LIST,
        L=2000,
        rho=0.1,
        eps0=1e-4,
        seed=SEED,
        basis_kind="voronoi",
        basis_K=30,
    )
    report = sp.run_sweep(cfg, write=False)[0]
    om = fit_order(report, "multiplier_error")
    if not 0.7 <= om <= 1.3:
        problems.append(f"multiplier order {om:.3f}")
    for row, ref in zip(report.rows, TABLE4_VP_MULT):
        if not (ref / 3.0 <= row.multiplier_error <= 3.0 * ref):
            problems.append(
                f"N={row.N} multiplier {row.multiplier_error:.3e} vs {ref:.3e}"
            )
    detail = (
        f"integral gaps {worst[1.0]:.1e}/{worst[0.5]:.1e}, multiplier order {om:.2f}"
        if not problems
        else "; ".join(problems)
    )
    _verdict(3, "constraint-level sweep", not problems, detail)


def test_criterion_4_psi_scheme_convergence():
    errors = {}
    for n in (16, 32, 64, 128, 256):
        grid = sp.TimeGrid(1.0, n)
        psi = solve_psi(grid, np.ones(n))
        exact = analytic_psi_constant(1.0, 1.0, grid.nodes)
        errors[n] = float(np.max(np.abs(psi - exact)))
    ratios = [errors[n] / errors[2 * n] for n in (16, 32, 64, 128)]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    _verdict(
        4,
        "backward-kernel first order",
        ok,
        "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_5_shift_identity():
    worst_p = worst_q = 0.0
    for prob in (sp.example2(alpha=0.1), sp.example3(alpha=0.1)):
        grid = sp.TimeGrid(1.0, 20)
        u = sp.nodal_sample(lambda t: 0.4 * (1.0 - t), grid)
        bw = sp.gen_brownian(SEED, 500, grid)
        gp = sp.discretize(prob, grid)
        ens = sp.euler_simulate(gp, u, bw)
        psi = solve_psi(grid, gp.b_y)
        basis = sp.BasisSpec("hypercube", 8)
        hat = sp.solve_bsde_hat(ens, bw, gp, u, basis)
        p, q = reference_backward(ens, bw, prob, u, basis, mu=0.7, psi=psi)
        worst_p = max(worst_p, float(np.max(np.abs(p - hat.p_hat - 0.7 * psi[None, :]))))
        worst_q = max(worst_q, float(np.max(np.abs(q - hat.q_hat))))
    ok = worst_p <= 1e-10 and worst_q <= 1e-10
    _verdict(5, "multiplier shift identity", ok, f"max P gap {worst_p:.2e}, max Q gap {worst_q:.2e}")


def test_criterion_6_kernel_identity():
    cases = {
        "b_y=0": lambda t: 0.0,
        "b_y=1": lambda t: 1.0,
        "b_y=t": lambda t: t,
    }
    problems = []
    details = []
    for label, b_y in cases.items():
        r512 = check_kernel_identity(sp.TimeGrid(1.0, 512), b_y, lambda t: 1.0)
        r256 = check_kernel_identity(sp.TimeGrid(1.0, 256), b_y, lambda t: 1.0)
        details.append(f"{label}: {r512:.2e} (ratio {r256 / r512:.2f})")
        if r512 > 0.01:
            problems.append(f"{label} residual {r512:.3e}")
        if not 1.6 <= r256 / r512 <= 2.4:
            problems.append(f"{label} ratio {r256 / r512:.2f}")
    _verdict(6, "projection kernel identity", not problems, "; ".join(details or problems))


def _stationarity_residual(n: int, L: int) -> float:
    prob = sp.example2(alpha=0.1)
    grid = sp.TimeGrid(1.0, n)
    u_star = sp.nodal_sample(prob.exact.u_star, grid)
    bw = sp.gen_brownian(SEED, L, grid)
    gp = sp.discretize(prob, grid)
    ens = sp.euler_simulate(gp, u_star, bw)
    adj = sp.solve_bsde_hat(
        ens, bw, gp, u_star, sp.BasisSpec("voronoi", 30),
    )
    grad = gradient(u_star, ens, adj, gp)
    # the optimality residual uses the closed-form kernel (b_y = 0 here)
    resid = grad.values + prob.exact.mu_star * analytic_psi_constant(
        0.0, prob.T, grid.nodes[:-1]
    )
    return float(np.sqrt(grid.dt * np.dot(resid, resid)))


def test_criterion_7_stationarity_at_optimum():
    base = _stationarity_residual(40, 10_000)
    finer = _stationarity_residual(80, 40_000)
    ok = base <= 0.05 and finer < base
    _verdict(
        7,
        "stationarity at the optimum",
        ok,
        f"residual {base:.4f} at N=40/L=1e4, {finer:.4f} at N=80/L=4e4",
    )


def test_criterion_8_oracle_equivalences():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind in ("hypercube", "voronoi"):
        x = rng.normal(size=100)
        z = np.cos(x) + rng.normal(size=100, scale=0.3)
        cells = np.empty(100, dtype=np.intp)
        order = np.full(100, -1, dtype=np.intp)
        part = build_partition(x, sp.BasisSpec(kind, 8), cells, order)
        coef, fitted = regress(cells, z, part.counts, np.empty(100))
        design = np.zeros((100, part.n_cells))
        design[np.arange(100), part.assign(x)] = 1.0
        dense, *_ = np.linalg.lstsq(design, z, rcond=None)
        worst = max(worst, float(np.max(np.abs(coef - dense))))

    from tests.test_optimizer import contraction_problem

    prob = contraction_problem()
    grid = sp.TimeGrid(1.0, 8)
    cfg = sp.SolveConfig(
        rho=0.5, eps0=1e-12, L=32, basis=sp.BasisSpec("hypercube", 4), seed=SEED, max_iters=100
    )
    res = sp.solve(prob, cfg, sp.constant_control(grid, 1.0))
    contraction_gap = max(
        float(np.max(np.abs(st.u.values - (1.0 - 0.5) ** st.i))) for st in res.history
    )
    ok = worst <= 1e-12 and contraction_gap <= 1e-12
    _verdict(
        8,
        "oracle equivalences",
        ok,
        f"regression vs dense lstsq {worst:.1e}, contraction gap {contraction_gap:.1e}",
    )


def test_criterion_9_determinism():
    prob = sp.example2(alpha=0.1)
    grid = sp.TimeGrid(1.0, 16)
    cfg = sp.SolveConfig(
        rho=0.1, eps0=1e-4, L=600, basis=sp.BasisSpec("voronoi", 12), seed=SEED
    )
    a = sp.solve(prob, cfg, sp.constant_control(grid, 0.0))
    b = sp.solve(prob, cfg, sp.constant_control(grid, 0.0))
    solve_ok = (
        np.array_equal(a.u_final.values, b.u_final.values)
        and a.mu_final == b.mu_final
        and [s.error for s in a.history] == [s.error for s in b.history]
    )

    sweep_cfg = sp.SweepConfig(
        problem="example3",
        delta=1.0,
        N_list=[8, 12],
        L=400,
        rho=0.1,
        eps0=1e-3,
        seed=SEED,
        basis_K=10,
    )
    ra = sp.run_sweep(sweep_cfg, write=False)[0]
    rb = sp.run_sweep(sweep_cfg, write=False)[0]
    sweep_ok = True
    for row_a, row_b in zip(ra.rows, rb.rows):
        da, db = dict(vars(row_a)), dict(vars(row_b))
        da.pop("wall_time_s"), db.pop("wall_time_s")
        sweep_ok = sweep_ok and da == db
    ok = solve_ok and sweep_ok
    _verdict(
        9,
        "bitwise determinism",
        ok,
        f"solve repeat identical: {solve_ok}; sweep cells identical (timings excluded): {sweep_ok}",
    )
