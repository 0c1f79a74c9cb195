#!/usr/bin/env python3
"""Sweep benchmark: the shipped ``socproj sweep --strict`` path on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  The benchmark writes a sweep config
for the workload with ``seed = N`` and calls ``socproj.cli.main(["sweep",
"--config", <cfg>, "--strict"])`` again and again for about S seconds.  After
every sweep it reads the written reports back and checks them.  Its last line
on stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` and ``failed`` count the (N,
component) report rows over all sweeps of the run.

With ``--trace 0`` the metrics are end to end.  Each is the median over the
run's sweeps, which all run untraced.  With ``--trace 1`` the run alternates
untraced and traced sweeps.  The traced sweeps give the per-layer metrics (see
``tracing.py``) and a span file.  The medians of the two kinds of sweep give
``trace.overhead_s``.  ``--workload all`` makes both kinds of run for every
workload, each in its own process.  See ``NOTES.md`` for the workloads, the
metrics and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

N_LIST_FULL = "8, 12, 16, 20, 30, 40"

# Each workload is a shipped config with the seed substituted and the N_list
# sized so that one sweep takes a few seconds.  ``tol`` is the feasibility
# tolerance that tests/test_acceptance.py applies to the problem's state
# integral.
WORKLOADS = {
    # configs/example1_figure.cfg.  Five independent components with L=10000
    # and 6-8 iterations per solve, so ensemble generation dominates.  Both
    # the solve's and bench's row regeneration count.
    "tracking5d": {
        "tol": 1e-6,
        "cfg": {
            "problem": "example1", "d": 5, "mu_star": 0.3, "alpha": 0.1,
            "N_list": "8, 16", "L": 10000, "rho": 0.5, "eps0": 5e-4,
            "max_iters": 500, "basis.kind": "VP", "basis.K": 30,
        },
    },
    # configs/example2_table.cfg.  About 38 iterations per N on L=2000, so
    # Voronoi partition building and regression dominate.
    "scalar-voronoi": {
        "tol": 1e-4,
        "cfg": {
            "problem": "example2", "alpha": 0.1, "N_list": N_LIST_FULL,
            "L": 2000, "rho": 0.1, "eps0": 1e-4, "max_iters": 500,
            "basis.kind": "VP", "basis.K": 30,
        },
    },
    # configs/example3_table.cfg.  Hypercube cells skip the quantile path, and
    # the state-dependent sigma feeds the Q-regression into the BSDE generator.
    # With no reference control, control_err is the self-convergence error.
    "statenoise-hypercube": {
        "tol": 1e-3,
        "cfg": {
            "problem": "example3", "alpha": 0.1, "delta": 1.34150,
            "mu_star": 1.0, "N_list": N_LIST_FULL, "L": 2000, "rho": 0.1,
            "eps0": 1e-4, "max_iters": 500, "basis.kind": "HC", "basis.K": 30,
            "self_convergence": "true",
        },
    },
}

def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for one section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@dataclasses.dataclass
class Sweep:
    """Outcome of one checked sweep."""

    sweep_s: float
    setup_s: float
    rc: int
    stdout: str
    problems: list[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    iterations: int = 0
    solve_s: float = 0.0  # sum of the rows' SolveResult.wall_time
    control_err: float = 0.0
    mult_err: float = 0.0


def write_config(workload: str, seed: int, report_dir: str, path: str) -> None:
    keys = dict(WORKLOADS[workload]["cfg"], seed=seed)
    keys["output.dir"] = report_dir
    keys["output.formats"] = "csv, json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {workload}, generated by perfbench/run.py\n")
        for key, value in keys.items():
            fh.write(f"{key} = {value}\n")


def run_cli_sweep(cli, cfg_path: str, report_dir: str, setup) -> Sweep:
    """One ``socproj sweep --strict`` call, timed; its report table is captured."""
    shutil.rmtree(report_dir, ignore_errors=True)
    captured = io.StringIO()
    before = setup.total if setup is not None else 0.0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(["sweep", "--config", cfg_path, "--strict"])
    sweep_s = time.perf_counter() - t0
    setup_s = setup.total - before if setup is not None else math.nan
    return Sweep(sweep_s, setup_s, rc, captured.getvalue())


def _finite(value) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


def check_sweep(sweep: Sweep, workload: str, cfg_path: str, bench) -> None:
    """Read the written reports back, check them and fill in the sweep's figures.

    A row that failed, did not converge, holds a non-finite cell or an
    infeasible state integral counts as failed.  A missing or unexpected file
    or a malformed report is a problem of the whole sweep.
    """
    spec = WORKLOADS[workload]
    cfg = bench.parse_config(cfg_path)
    report_dir = cfg.output_dir
    n_comp = len(getattr(bench.build_problem(cfg), "components", (None,)))
    problems = sweep.problems
    if sweep.rc != 0:
        problems.append(f"cli exit code {sweep.rc}")

    stem = f"{cfg.problem}_{cfg.basis_kind}"
    stems = [stem + (f"_c{k}" if n_comp > 1 else "") for k in range(1, n_comp + 1)]
    expected = {f"{stem}_report.json"}
    for s in stems:
        expected.add(f"{s}_report.csv")
        expected.update(f"{s}_control_N{n}.csv" for n in cfg.N_list)
    found = set(os.listdir(report_dir)) if os.path.isdir(report_dir) else set()
    if found != expected:
        problems.append(
            f"report files: missing {sorted(expected - found)}, "
            f"unexpected {sorted(found - expected)}"
        )
    for s in stems:
        path = os.path.join(report_dir, f"{s}_report.csv")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if lines[:1] != [bench.CSV_HEADER] or len(lines) != 1 + len(cfg.N_list):
                problems.append(f"{s}_report.csv: bad header or row count")
        for n in cfg.N_list:
            path = os.path.join(report_dir, f"{s}_control_N{n}.csv")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                if lines[:1] != ["node,numerical,exact"] or len(lines) != 1 + n:
                    problems.append(f"{s}_control_N{n}.csv: bad header or row count")

    json_path = os.path.join(report_dir, f"{stem}_report.json")
    sweep.attempted = n_comp * len(cfg.N_list)
    if not os.path.exists(json_path):
        sweep.failed = sweep.attempted
        return
    with open(json_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    components = payload["components"]
    deltas = payload["metadata"]["delta"]
    if [c["component"] for c in components] != list(range(1, n_comp + 1)):
        problems.append("report JSON: wrong component list")
        sweep.failed = sweep.attempted
        return

    finest_control, finest_mult = [], []
    for comp, delta in zip(components, deltas):
        rows = comp["rows"]
        if [r["N"] for r in rows] != cfg.N_list:
            problems.append(f"component {comp['component']}: rows do not match N_list")
        bad_rows = set()
        for row in rows:
            where = f"component {comp['component']} N={row['N']}"
            if row["failure"] is not None or row["converged"] is not True:
                bad_rows.add(row["N"])
                problems.append(f"{where}: failure={row['failure']!r} converged={row['converged']}")
                continue
            if not all(_finite(v) for v in row.values()):
                bad_rows.add(row["N"])
                problems.append(f"{where}: non-finite cell")
            if row["state_integral"] is None or row["state_integral"] > delta + spec["tol"]:
                bad_rows.add(row["N"])
                problems.append(f"{where}: state integral {row['state_integral']} > delta {delta}")
            sweep.iterations += row["iterations"] or 0
            sweep.solve_s += row["wall_time_s"] or 0.0
        sweep.failed += len(bad_rows)
        with_ctrl = [r for r in rows if r["control_error"] is not None]
        with_mult = [r for r in rows if r["multiplier_error"] is not None]
        if with_ctrl:
            finest_control.append(with_ctrl[-1]["control_error"])
        if with_mult:
            finest_mult.append(with_mult[-1]["multiplier_error"])
    if len(finest_control) != n_comp or len(finest_mult) != n_comp:
        problems.append("a component reports no control or multiplier error")
    sweep.control_err = max(finest_control, default=0.0)
    sweep.mult_err = max(finest_mult, default=0.0)
    cells = [
        {"component": c["component"],
         "rows": [{k: v for k, v in r.items() if k != "wall_time_s"} for r in c["rows"]]}
        for c in components
    ]
    sweep.digest = hashlib.sha256(
        json.dumps(cells, sort_keys=True).encode("utf-8")
    ).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "socproj", "cli.py")):
        print(f"perfbench: no socproj sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # Every workload, untraced then traced, each run in its own process.
        failed_runs = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                failed_runs += subprocess.run(cmd, check=False).returncode != 0
        return 1 if failed_runs else 0
    sys.path.insert(0, SRC)
    import numpy
    from socproj import bench, cli

    import tracing

    # The config names the output directory; an inherited override must not
    # redirect the reports out of the checkout.
    os.environ.pop(bench.OUTPUT_DIR_ENV, None)
    workdir = os.path.join(OUT, args.workload)
    report_dir = os.path.join(workdir, "reports")
    cfg_path = os.path.join(workdir, "sweep.cfg")
    os.makedirs(workdir, exist_ok=True)
    write_config(args.workload, args.seed, report_dir, cfg_path)

    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )
    setup = tracing.SetupTimer()
    tracer = tracing.Tracer(args.workload)
    untraced: list[Sweep] = []
    traced: list[Sweep] = []
    origin = time.perf_counter()
    deadline = origin + args.seconds

    def untraced_sweep():
        with setup.installed():
            untraced.append(run_cli_sweep(cli, cfg_path, report_dir, setup))
        check_sweep(untraced[-1], args.workload, cfg_path, bench)
        return untraced[-1].sweep_s

    def traced_sweep():
        with tracer.sweep():
            traced.append(run_cli_sweep(cli, cfg_path, report_dir, None))
        check_sweep(traced[-1], args.workload, cfg_path, bench)
        return traced[-1].sweep_s

    # Start another sweep (or untraced/traced pair) only while the slowest so
    # far still fits before the deadline.
    step = untraced_sweep if args.trace == 0 else (lambda: untraced_sweep() + traced_sweep())
    longest = step()
    while time.perf_counter() + longest <= deadline:
        longest = max(longest, step())

    sweeps = untraced + traced
    problems = sorted({p for s in sweeps for p in s.problems})
    digests = {s.digest for s in sweeps}
    if len(digests) != 1:
        problems.append(f"behaviour fingerprint differs between sweeps: {sorted(digests)}")
    attempted = sum(s.attempted for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    if any(s.rc != 0 for s in sweeps):
        print(next(s.stdout for s in sweeps if s.rc != 0)[-2000:], file=sys.stderr)
    correct = not problems and failed == 0
    print(f"fingerprint {args.workload} seed={args.seed} sha256={','.join(sorted(digests))}")
    for kind, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"{kind} sweep_s: " + " ".join(f"{s.sweep_s:.3f}" for s in group))
    print(f"solve_failures = {failed / attempted:.6g} fraction ({failed} of {attempted} rows)")

    if args.trace == 0:
        metrics = {
            "sweep_s": median(s.sweep_s for s in untraced),
            "setup_s": median(s.setup_s for s in untraced),
            "iters_per_s": median(
                s.iterations / (s.solve_s - s.setup_s) for s in untraced
            ),
            "iterations": median(s.iterations for s in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "control_err": median(s.control_err for s in untraced),
            "mult_err": median(s.mult_err for s in untraced),
        }
        section = "end_to_end"
        note = f"median of {len(untraced)} untraced sweeps"
    else:
        try:
            per_sweep = [tracer.sweep_metrics(i) for i in range(len(traced))]
        except tracing.LayerNotCalled as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        metrics = {name: median(m[name] for m in per_sweep) for name in per_sweep[0]}
        metrics["bench.outside_solve_s"] = median(s.sweep_s - s.solve_s for s in untraced)
        metrics["trace.overhead_s"] = (
            median(s.sweep_s for s in traced) - median(s.sweep_s for s in untraced)
        )
        metrics["solve_failures"] = failed / attempted
        section = "per_layer"
        note = f"median of {len(traced)} traced sweeps, {len(untraced)} untraced"
        for n, row in tracer.per_n(len(traced) - 1).items():
            print(f"per-N {args.workload} N={n}: " + " ".join(
                f"{key}={value:.4g}" for key, value in row.items()
            ))
        tracer.write(os.path.join(workdir, "trace.jsonl"), origin)

    units = declared_units(section)
    if set(units) != set(metrics):
        print(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({note})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
