"""Harness tests: rates, order fits, config parsing, reports, CLI."""

import dataclasses
import glob
import importlib.util
import json
import os
import re
import sys

import numpy as np
import pytest

import socproj
from socproj import bench, cli, optimizer
from socproj.bench import (
    CONFIG_KEYS,
    CSV_HEADER,
    OUTPUT_DIR_ENV,
    RunReport,
    RunRow,
    SweepConfig,
    build_problem,
    parse_config,
    rate,
    report_csv_lines,
    run_sweep,
)
from socproj.gridfn import TimeGrid, constant_control, l2_dist, nodal_sample
from socproj.lsmc import BasisSpec
from socproj.optimizer import SolveConfig, solve
from socproj.paths import (
    SimulationError,
    derive_seed,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
from socproj.problems import EXAMPLE2_DELTA, VectorProblem, discretize, example1
from tests.oracles import fit_order
from tests.test_optimizer import contraction_problem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(monkeypatch, stem):
    """``perfbench/<stem>.py`` as a module, without running it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", os.path.join(REPO_ROOT, "perfbench", f"{stem}.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


# Configs whose problem cannot be built, with the message each must give.
BAD_PROBLEMS = {
    "misspelt": ("problem = exmaple2\nN_list = 8\n", "unknown problem 'exmaple2'"),
    "example1-d0": ("problem = example1\nN_list = 8\nd = 0\n", "dimension must be >= 1, got 0"),
    "example2-alpha0": ("problem = example2\nN_list = 8\nalpha = 0\n", "alpha must be nonzero"),
}

# Published convergence table for the quantile-cell basis (control column).
TABLE_VP_CONTROL = [
    (8, 2.56788e-2),
    (12, 1.73326e-2),
    (16, 1.30837e-2),
    (20, 1.05093e-2),
    (30, 7.04458e-3),
    (40, 5.29884e-3),
]


class TestRate:
    def test_published_pair_hc(self):
        assert rate(2.57203e-2, 8, 1.73583e-2, 12) == pytest.approx(0.97, abs=5e-3)

    def test_exact_halving(self):
        assert rate(1.0, 10, 0.5, 20) == pytest.approx(1.0)

    def test_published_pair_grid(self):
        assert rate(7.04343e-3, 30, 5.29748e-3, 40) == pytest.approx(0.99, abs=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            rate(0.0, 8, 1.0, 12)
        with pytest.raises(ValueError):
            rate(1.0, 12, 0.5, 12)


class TestFitOrder:
    def _report(self, pairs):
        rep = RunReport(component=1, metadata={})
        rep.rows = [RunRow(N=n, control_error=e) for n, e in pairs]
        return rep

    def test_first_order_exact(self):
        rep = self._report([(n, 3.0 / n) for n in (8, 16, 32, 64)])
        assert fit_order(rep) == pytest.approx(1.0, abs=1e-12)

    def test_second_order_exact(self):
        rep = self._report([(n, 3.0 / n**2) for n in (8, 16, 32, 64)])
        assert fit_order(rep) == pytest.approx(2.0, abs=1e-12)

    def test_published_control_column(self):
        assert fit_order(self._report(TABLE_VP_CONTROL)) == pytest.approx(0.98, abs=0.05)

    def test_insufficient_rows(self):
        with pytest.raises(ValueError):
            fit_order(self._report([(8, 1.0), (16, 0.5)]))


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        text = """
# sweep configuration
problem = example1
d = 5
alpha = 0.1
mu_star = 0.3
N_list = 8, 12, 16, 20, 30, 40
L = 10000
rho = 0.5
rho_schedule = constant
eps0 = 5e-4
max_iters = 400
seed = 4242
basis.kind = VP    # quantile cells
basis.K = 25
output.dir = results
output.formats = csv, json
"""
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        assert cfg.problem == "example1"
        assert cfg.d == 5
        assert cfg.N_list == [8, 12, 16, 20, 30, 40]
        assert cfg.L == 10000
        assert cfg.rho == 0.5
        assert cfg.eps0 == 5e-4
        assert cfg.max_iters == 400
        assert cfg.seed == 4242
        assert cfg.basis_kind == "voronoi"
        assert cfg.basis_K == 25
        assert cfg.output_dir == "results"
        assert cfg.output_formats == ["csv", "json"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # the basis keys are the Q-regression knobs that are no longer options
        for line in ("wat = 1", "basis.K_tilde = 3", "basis.tau_rule = true"):
            path.write_text(f"problem = example2\nN_list = 8\n{line}\n")
            with pytest.raises(ValueError, match="unknown key"):
                parse_config(str(path))

    @pytest.mark.parametrize(
        "line, key, detail",
        [
            ("L = abc", "L", "invalid literal for int() with base 10: 'abc'"),
            ("max_iters = 1.5", "max_iters", "invalid literal for int() with base 10: '1.5'"),
            ("rho = fast", "rho", "could not convert string to float: 'fast'"),
            # a non-finite float would fail every row of a sweep, or (eps0)
            # keep every solve from stopping before max_iters
            ("rho = nan", "rho", "not a finite number: 'nan'"),
            ("rho = inf", "rho", "not a finite number: 'inf'"),
            ("alpha = nan", "alpha", "not a finite number: 'nan'"),
            ("eps0 = nan", "eps0", "not a finite number: 'nan'"),
            ("self_convergence = maybe", "self_convergence", "not a boolean: 'maybe'"),
            (
                "basis.kind = poly",
                "basis.kind",
                "unknown basis kind 'poly' (use hypercube/HC or voronoi/VP)",
            ),
        ],
    )
    def test_bad_value_names_path_line_and_key(self, tmp_path, line, key, detail):
        # example3 takes every key above, so each line reaches its value parser
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = example3\nN_list = 8\n# a comment\n{line}\n")
        with pytest.raises(ValueError) as info:
            parse_config(str(path))
        assert str(info.value) == f"{path}:4: bad value for '{key}': {detail}"

    @pytest.mark.parametrize(
        "line, want",
        [
            ("self_convergence = false", False),
            ("self_convergence = 0", False),
            ("self_convergence = No", False),
            ("self_convergence = OFF", False),
            ("self_convergence = on", True),
            ("self_convergence", "expected 'key = value'"),
        ],
    )
    def test_boolean_spellings_and_a_line_without_a_value(self, tmp_path, line, want):
        path = tmp_path / "c.cfg"
        path.write_text(f"problem = example3\nN_list = 8\n{line}\n")
        if isinstance(want, bool):
            assert parse_config(str(path)).self_convergence is want
            return
        with pytest.raises(ValueError) as info:
            parse_config(str(path))
        assert str(info.value) == f"{path}:3: {want}"

    def test_every_float_key_must_be_finite(self):
        float_attrs = {f.name for f in dataclasses.fields(SweepConfig) if "float" in f.type}
        float_keys = sorted(k for k, (attr, _) in CONFIG_KEYS.items() if attr in float_attrs)
        assert float_keys == ["alpha", "delta", "eps0", "mu_star", "rho", "u0"]
        for key in float_keys:
            for bad in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match="not a finite number"):
                    CONFIG_KEYS[key][1](bad)
                # built in code too: delta = inf would solve example3 unconstrained
                with pytest.raises(ValueError, match=f"^{key} must be (positive and )?finite"):
                    SweepConfig(problem="example3", N_list=[4], **{key: float(bad)})

    def test_empty_output_dir_rejected(self):
        with pytest.raises(ValueError, match="output.dir must not be empty"):
            SweepConfig(problem="example2", N_list=[8], output_dir="")

    @pytest.mark.parametrize("case", list(BAD_PROBLEMS))
    def test_bad_problem_parameters_rejected_at_parse_time(self, tmp_path, case):
        text, message = BAD_PROBLEMS[case]
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_config(str(path))
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("problem", ["example1", "example2", "example3"])
    def test_one_parse_builds_the_problem_once(self, tmp_path, monkeypatch, problem):
        calls = []
        build = bench.build_problem
        monkeypatch.setattr(bench, "build_problem", lambda cfg: calls.append(cfg) or build(cfg))
        path = tmp_path / "one.cfg"
        path.write_text(f"problem = {problem}\nN_list = 8\n")
        parse_config(str(path))
        assert len(calls) == 1

    def test_misspelt_problem_rejected_with_build_problems_message(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = exmaple2\nN_list = 8\n")
        with pytest.raises(ValueError) as parsed:
            parse_config(str(path))
        with pytest.raises(ValueError) as built:
            build_problem(SweepConfig(problem="exmaple2", N_list=[8]))
        assert str(parsed.value) == f"{path}: {built.value}"

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"problem": "example2", "alpha": 0.0}, "alpha must be nonzero"),
            ({"problem": "example1", "d": 0}, "dimension must be >= 1, got 0"),
            ({"problem": "example1", "mu_star": -1.0}, "multiplier constant must be nonnegative"),
        ],
        ids=["example2-alpha0", "example1-d0", "example1-mu-negative"],
    )
    def test_bad_problem_parameters_rejected_when_built_in_code(self, params, message):
        # before any N is solved, as a config file's are
        with pytest.raises(ValueError, match=message):
            SweepConfig(N_list=[8], **params)

    def test_missing_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N_list = 8, 16\n")
        with pytest.raises(ValueError, match="problem"):
            parse_config(str(path))

    def test_missing_n_list_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = example2\n")
        with pytest.raises(ValueError, match="missing required key 'N_list'"):
            parse_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = example2\nN_list = 8\nrho = 0.1\n\nrho = 0.5\n")
        with pytest.raises(ValueError) as info:
            parse_config(str(path))
        assert str(info.value) == f"{path}:5: repeated key 'rho'"

    @pytest.mark.parametrize(
        "formats", ["jsn", "csv, jsn", "csv json", ""], ids=["jsn", "csv-jsn", "no-comma", "empty"]
    )
    def test_unknown_output_format_rejected(self, tmp_path, formats):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = example2\nN_list = 8\noutput.formats = {formats}\n")
        with pytest.raises(ValueError, match="output.formats must be csv and/or json"):
            parse_config(str(path))

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.cfg"
        path.write_text("problem = example2\nN_list = 8, 16\noutput.dir = a\n")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        cfg = parse_config(str(path))
        assert cfg.output_dir == str(tmp_path / "env_out")

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(problem="example2", N_list=[8, 8])
        with pytest.raises(ValueError):
            SweepConfig(problem="example2", N_list=[1, 4])
        with pytest.raises(ValueError):
            SweepConfig(problem="example2", N_list=[])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("L = 0", "L must be >= 1, got 0"),
            ("rho = 0", "rho must be positive"),
            *(
                (f"seed = {seed}", re.escape(f"seed must be in [0, 2**64), got {seed}"))
                for seed in (-1, 2**64, 2**70)
            ),
        ],
    )
    def test_bad_solver_knob_rejected_at_parse_time(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = example2\nN_list = 8\n{line}\n")
        with pytest.raises(ValueError, match=message):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "problem, key",
        [
            ("example1", "delta"),
            ("example1", "self_convergence"),
            ("example2", "delta"),
            ("example2", "d"),
            ("example2", "mu_star"),
            ("example2", "self_convergence"),
            ("example3", "d"),
        ],
    )
    def test_key_the_problem_ignores_rejected(self, tmp_path, problem, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = {problem}\nN_list = 8\n{key} = 2\n")
        with pytest.raises(ValueError, match=f"'{key}' does not apply to problem {problem}"):
            parse_config(str(path))
        # built in code, the config must not carry (and report) the key either
        with pytest.raises(ValueError, match=f"^{key} = 2 does not apply to {problem}$"):
            SweepConfig(problem=problem, N_list=[8], **{key: 2})

    def test_largest_seed_parses(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(f"problem = example2\nN_list = 8\nseed = {2**64 - 1}\n")
        assert parse_config(str(path)).seed == 2**64 - 1

    def test_shipped_configs_parse(self):
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg")))
        assert len(paths) == 4
        for path in paths:
            build_problem(parse_config(path))

    def test_benchmark_configs_parse(self, tmp_path, monkeypatch):
        run = load_perfbench(monkeypatch, "run")
        assert len(run.WORKLOADS) == 3
        for workload in run.WORKLOADS:
            path = str(tmp_path / f"{workload}.cfg")
            run.write_config(workload, 7, str(tmp_path / workload), path)
            build_problem(parse_config(path))

    def test_solve_config_takes_every_shared_field(self):
        cfg = SweepConfig(
            problem="example2",
            N_list=[4],
            L=123,
            rho=0.3,
            rho_schedule="harmonic",
            eps0=2e-3,
            max_iters=7,
            basis_kind="hypercube",
            basis_K=5,
            normalize_increments=False,
        )
        assert cfg.solve_config(99) == SolveConfig(
            rho=0.3,
            eps0=2e-3,
            L=123,
            basis=BasisSpec("hypercube", 5),
            seed=99,
            rho_schedule="harmonic",
            max_iters=7,
            normalize_increments=False,
        )

    def test_build_problem_dispatch(self):
        assert build_problem(SweepConfig(problem="example2", N_list=[8])).name == "example2"
        vp = build_problem(SweepConfig(problem="example1", N_list=[8], d=3))
        assert isinstance(vp, VectorProblem) and len(vp.components) == 3
        e3 = build_problem(SweepConfig(problem="example3", N_list=[8], delta=0.5))
        assert e3.delta == 0.5
        with pytest.raises(ValueError, match="unknown problem"):
            build_problem(SweepConfig(problem="nope", N_list=[8]))


class TestReports:
    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == (
            "N,control_error,control_rate,multiplier_error,multiplier_rate,"
            "state_integral,iterations,wall_time_s"
        )

    def test_csv_formatting(self):
        rep = RunReport(component=1, metadata={})
        rep.rows = [
            RunRow(N=8, control_error=2.56788e-2, state_integral=0.16543,
                   iterations=37, wall_time_s=0.1234567),
            RunRow(N=12, control_error=1.73326e-2, control_rate=0.9692,
                   state_integral=0.16543, iterations=38, wall_time_s=0.2),
        ]
        lines = report_csv_lines(rep)
        assert lines[0] == CSV_HEADER
        assert lines[1] == "8,2.5679e-2,,,,0.16543,37,0.123"
        assert lines[2] == "12,1.7333e-2,0.97,,,0.16543,38,0.200"

    def test_zero_noise_smoke_sweep(self):
        cfg = SweepConfig(
            problem="custom",
            N_list=[2, 4, 8],
            L=8,
            rho=0.5,
            eps0=1e-12,
            max_iters=100,
            seed=1,
            u0=1.0,
            basis_K=4,
        )
        reports = run_sweep(cfg, problem=contraction_problem(sigma=0.0), write=False)
        assert len(reports) == 1
        for row in reports[0].rows:
            assert row.failure is None
            assert row.control_error <= 1e-8

    @pytest.mark.parametrize("problem, d", [("example1", 2), ("example3", 1)])
    def test_sweep_solves_record_a_finite_feasibility_residual(
        self, monkeypatch, problem, d
    ):
        results = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                results.append(fn(*args, **kwargs))
                return results[-1]

            return wrapped

        monkeypatch.setattr(bench, "solve", recording(bench.solve))
        cfg = SweepConfig(
            problem=problem, d=d, N_list=[4, 8], L=200, rho=0.5, eps0=1e-3, basis_K=6
        )
        run_sweep(cfg, write=False)
        assert len(results) == 2 * d
        for res in results:
            assert np.isfinite(res.feasibility_residual)
            assert 0.0 <= res.setup_time <= res.wall_time

    def test_failures_recorded_and_sweep_continues(self):
        bad = contraction_problem()
        bad = type(bad)(
            name="nan-drift",
            drift=type(bad.drift)(
                b_y=lambda t: float("nan"),
                b_u=lambda t: 1.0,
                m=lambda t: 0.0,
            ),
            diffusion=bad.diffusion,
            costs=bad.costs,
            y0=0.0,
            T=1.0,
            delta=1e9,
        )
        cfg = SweepConfig(problem="custom", N_list=[2, 4], L=4, seed=1, max_iters=5)
        reports = run_sweep(cfg, problem=bad, write=False)
        assert [row.failure is not None for row in reports[0].rows] == [True, True]
        assert [row.N for row in reports[0].rows] == [2, 4]

    def test_sweep_outputs_on_disk(self, tmp_path):
        cfg = SweepConfig(
            problem="example2",
            N_list=[4, 8],
            L=200,
            rho=0.1,
            eps0=1e-3,
            seed=5,
            basis_K=8,
            output_dir=str(tmp_path),
        )
        reports = run_sweep(cfg)
        csv_path = tmp_path / "example2_voronoi_report.csv"
        json_path = tmp_path / "example2_voronoi_report.json"
        assert csv_path.exists() and json_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cfg.N_list)
        payload = json.loads(json_path.read_text())
        assert payload["metadata"]["seed"] == 5
        assert len(payload["components"][0]["rows"]) == 2
        traj = tmp_path / "example2_voronoi_control_N8.csv"
        assert traj.exists()
        header, *rows = traj.read_text().splitlines()
        assert header == "node,numerical,exact"
        assert len(rows) == 8
        # rates in the CSV match the rate() of adjacent error cells
        r = reports[0].rows
        assert r[1].control_rate == pytest.approx(
            rate(r[0].control_error, 4, r[1].control_error, 8)
        )

    def test_trajectory_cells_parse_back_to_the_controls(self, tmp_path):
        cfg = SweepConfig(
            problem="example1", d=2, N_list=[4, 8], L=200, rho=0.5, eps0=1e-3,
            basis_K=6, output_dir=str(tmp_path), output_formats=["csv"],
        )
        reports = run_sweep(cfg)
        for comp, report in zip(build_problem(cfg).components, reports):
            for N, res in report.results.items():
                path = tmp_path / f"example1_voronoi_c{report.component}_control_N{N}.csv"
                header, *lines = path.read_text().splitlines()
                assert header == "node,numerical,exact"
                cells = np.array([[float(x) for x in line.split(",")] for line in lines])
                grid = res.u_final.grid
                assert cells[:, 0].tobytes() == grid.nodes[:-1].tobytes()
                assert cells[:, 1].tobytes() == res.u_final.values.tobytes()
                exact = [comp.exact.u_star(t) for t in grid.nodes[:-1].tolist()]
                assert cells[:, 2].tolist() == exact

    def test_json_metadata_holds_the_whole_config(self, tmp_path):
        cfg = SweepConfig(
            problem="example2",
            N_list=[4],
            L=50,
            max_iters=2,
            basis_K=4,
            output_dir=str(tmp_path),
            output_formats=["json"],
        )
        run_sweep(cfg)
        payload = json.loads((tmp_path / "example2_voronoi_report.json").read_text())
        meta = payload["metadata"]
        for f in dataclasses.fields(SweepConfig):
            if f.name != "delta":
                assert meta[f.name] == getattr(cfg, f.name), f.name
        # one constraint level per component, which perfbench zips with them
        assert meta["delta"] == [EXAMPLE2_DELTA]
        assert meta["socproj_version"] == socproj.__version__
        assert meta["numpy_version"] == np.__version__

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg"))),
        ids=os.path.basename,
    )
    def test_json_metadata_reruns_the_sweep(self, tmp_path, path):
        cfg = dataclasses.replace(
            parse_config(path),
            N_list=[8, 12], L=200, output_dir=str(tmp_path), output_formats=["json"],
        )
        run_sweep(cfg)
        (json_path,) = glob.glob(str(tmp_path / "*.json"))
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        meta = payload["metadata"]
        rebuilt = SweepConfig(**{
            f.name: meta["config_delta" if f.name == "delta" else f.name]
            for f in dataclasses.fields(SweepConfig)
        })
        assert rebuilt == cfg
        rerun = run_sweep(rebuilt, write=False)
        written = [c["rows"] for c in payload["components"]]
        assert len(written) == len(rerun)
        for rows, report in zip(written, rerun):
            assert len(rows) == len(report.rows) == 2
            for row, again in zip(rows, report.rows):
                again = dataclasses.asdict(again)
                row.pop("wall_time_s"), again.pop("wall_time_s")
                assert row == again

    def test_sweep_determinism_excluding_wall_time(self, tmp_path):
        cfg = SweepConfig(
            problem="example2",
            N_list=[4, 8],
            L=300,
            rho=0.1,
            eps0=1e-3,
            seed=99,
            basis_K=8,
        )
        a = run_sweep(cfg, write=False)
        b = run_sweep(cfg, write=False)
        for ra, rb in zip(a[0].rows, b[0].rows):
            da, db = dict(vars(ra)), dict(vars(rb))
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert da == db

    def test_self_convergence_column(self):
        cfg = SweepConfig(
            problem="example3",
            delta=1.0,
            N_list=[4, 8, 16],
            L=300,
            rho=0.1,
            eps0=1e-3,
            seed=2,
            basis_K=8,
            self_convergence=True,
        )
        reports = run_sweep(cfg, write=False)
        rows = reports[0].rows
        assert rows[0].control_error is not None and rows[0].control_error > 0
        assert rows[-1].control_error is None  # finest row has no reference

    def test_self_convergence_without_a_finest_solve_leaves_the_column_blank(
        self, monkeypatch
    ):
        solve = bench.solve

        def failing_at_the_finest_n(comp, cfg, u0, workspace):
            if u0.grid.N == 8:
                raise SimulationError("diverged")
            return solve(comp, cfg, u0, workspace)

        monkeypatch.setattr(bench, "solve", failing_at_the_finest_n)
        cfg = SweepConfig(
            problem="example3", delta=1.0, N_list=[4, 8], L=300, rho=0.1, eps0=1e-3,
            seed=2, basis_K=8, self_convergence=True,
        )
        (report,) = run_sweep(cfg, write=False)
        assert [row.failure for row in report.rows] == [None, "SimulationError: diverged"]
        assert [row.control_error for row in report.rows] == [None, None]


def standalone(comp, cfg, N, j):
    """A component's solve at grid size N, built by hand: seed
    derive_seed(derive_seed(seed, N), j), j the index of the first component
    on its grid (the same T), and every other knob of ``cfg``."""
    solve_cfg = SolveConfig(
        rho=cfg.rho,
        eps0=cfg.eps0,
        L=cfg.L,
        basis=BasisSpec(cfg.basis_kind, cfg.basis_K),
        seed=derive_seed(derive_seed(cfg.seed, N), j),
        rho_schedule=cfg.rho_schedule,
        max_iters=cfg.max_iters,
        normalize_increments=cfg.normalize_increments,
    )
    return solve(comp, solve_cfg, constant_control(TimeGrid(comp.T, N), cfg.u0))


def row_matches(row, comp, res):
    """Every cell a solve fills in ``row`` comes from ``res``."""
    u_star = nodal_sample(comp.exact.u_star, res.u_final.grid)
    return row.failure is None and (
        row.state_integral,
        row.iterations,
        row.converged,
        row.control_error,
        row.multiplier_error,
    ) == (
        res.state_integral,
        res.iterations,
        res.converged,
        l2_dist(res.u_final, u_star),
        abs(res.mu_final - comp.exact.mu_star),
    )


class TestComponentSolves:
    """Each (N, component) pair of a sweep is one independent solve of that
    component, kept on the component's report; the components on one grid
    share one seed, and so one ensemble."""

    def test_single_component_matches_scalar_solve(self):
        cfg = SweepConfig(
            problem="example1", d=1, N_list=[10], L=800, rho=0.5, basis_K=10, seed=42
        )
        (report,) = run_sweep(cfg, write=False)
        assert list(report.results) == [10] and len(report.rows) == 1
        res = report.results[10]
        comp = example1(d=1, mu=0.3, alpha=0.1).components[0]
        ref = standalone(comp, cfg, 10, 0)
        np.testing.assert_array_equal(res.u_final.values, ref.u_final.values)
        assert res.mu_final == ref.mu_final
        assert row_matches(report.rows[0], comp, ref)

    def test_component_errors_scale_inversely(self):
        cfg = SweepConfig(
            problem="example1",
            d=3,
            N_list=[20],
            L=2000,
            rho=0.5,
            eps0=5e-4,
            basis_K=20,
            seed=9,
        )
        errs = [report.rows[0].control_error for report in run_sweep(cfg, write=False)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[0] / errs[2] == pytest.approx(3.0, rel=0.2)

    def test_state_integral_per_component(self):
        cfg = SweepConfig(
            problem="example1",
            d=3,
            N_list=[8],
            L=500,
            rho=0.5,
            eps0=5e-4,
            basis_K=8,
            seed=17,
        )
        reports = run_sweep(cfg, write=False)
        grid = TimeGrid(1.0, 8)
        for k, (comp, report) in enumerate(zip(build_problem(cfg).components, reports)):
            res = report.results[8]
            # every component is on one grid, so all share component 1's ensemble
            bw = gen_brownian(derive_seed(derive_seed(17, 8), 0), cfg.L, grid)
            assert report.rows[0].state_integral == res.state_integral == mean_state_integral(
                euler_simulate(discretize(comp, grid), res.u_final, bw)
            )

    def test_components_inherit_every_non_seed_knob(self):
        cfg = SweepConfig(
            problem="example1",
            d=2,
            mu_star=0.4,
            alpha=0.2,
            N_list=[4, 6],
            L=200,
            rho=0.3,
            eps0=1e-9,
            basis_kind="hypercube",
            basis_K=6,
            rho_schedule="harmonic",
            max_iters=4,
            normalize_increments=False,
            u0=0.25,
            seed=5,
        )
        comps = example1(d=2, mu=0.4, alpha=0.2).components
        reports = run_sweep(cfg, write=False)
        for k, comp in enumerate(comps):
            assert list(reports[k].results) == cfg.N_list
            for N, row in zip(cfg.N_list, reports[k].rows):
                res, ref = reports[k].results[N], standalone(comp, cfg, N, 0)
                assert res.iterations == ref.iterations == 4
                np.testing.assert_array_equal(res.u_final.values, ref.u_final.values)
                assert res.mu_final == ref.mu_final
                assert row_matches(row, comp, ref)

    def test_feasibility_all_components(self):
        cfg = SweepConfig(
            problem="example1",
            d=2,
            N_list=[12],
            L=1000,
            rho=0.5,
            eps0=5e-4,
            basis_K=10,
            seed=13,
        )
        grid = TimeGrid(1.0, 12)
        reports = run_sweep(cfg, write=False)
        for k, (comp, report) in enumerate(zip(build_problem(cfg).components, reports)):
            bw = gen_brownian(derive_seed(derive_seed(13, 12), 0), cfg.L, grid)
            integral = mean_state_integral(
                euler_simulate(discretize(comp, grid), report.results[12].u_final, bw)
            )
            assert integral <= comp.delta + 1e-10

    @staticmethod
    def _two_grids():
        """Components 1 and 3 on T = 1, component 2 on T = 2."""
        one = example1(d=2, mu=0.3, alpha=0.1).components
        two = example1(d=1, mu=0.3, alpha=0.1, T=2.0).components
        return VectorProblem(components=(one[0], two[0], one[1]))

    def test_components_on_one_grid_share_one_draw(self, monkeypatch):
        draws = []

        def recording(seed, L, grid, normalize):
            draws.append((seed, grid))
            return gen_brownian(seed, L, grid, normalize)

        monkeypatch.setattr(optimizer, "gen_brownian", recording)
        cfg = SweepConfig(
            problem="custom", N_list=[4, 8], L=200, rho=0.5, eps0=1e-3, basis_K=6, seed=3
        )
        reports = run_sweep(cfg, problem=self._two_grids(), write=False)
        assert [list(report.results) for report in reports] == [[4, 8]] * 3
        expected = []
        for N in cfg.N_list:
            seed_n = derive_seed(cfg.seed, N)
            expected += [
                (derive_seed(seed_n, 0), TimeGrid(1.0, N)),
                (derive_seed(seed_n, 1), TimeGrid(2.0, N)),
            ]
        assert draws == expected
        assert len({seed for seed, _ in draws}) == len(draws)

    def test_every_component_matches_its_standalone_solve(self):
        # the components share their grid's ensemble, drawn once per N, yet
        # each solve is the one it would be on its own, bit for bit
        cfg = SweepConfig(
            problem="custom", N_list=[4, 8], L=300, rho=0.5, eps0=1e-3, basis_K=6, seed=3
        )
        vp = self._two_grids()
        reports = run_sweep(cfg, problem=vp, write=False)
        for comp, report, j in zip(vp.components, reports, (0, 1, 0)):
            for N, row in zip(cfg.N_list, report.rows):
                res, ref = report.results[N], standalone(comp, cfg, N, j)
                assert res.iterations == ref.iterations
                assert res.u_final.values.tobytes() == ref.u_final.values.tobytes()
                assert (res.mu_final, res.state_integral, res.feasibility_residual) == (
                    ref.mu_final, ref.state_integral, ref.feasibility_residual
                )
                for a, b in zip(res.history, ref.history, strict=True):
                    assert a.u.values.tobytes() == b.u.values.tobytes()
                    assert (a.I_hat, a.mu, a.error) == (b.I_hat, b.mu, b.error)
                assert row_matches(row, comp, ref)

    def test_failed_component_keeps_its_siblings_rows(self):
        good = example1(d=1, mu=0.3, alpha=0.1).components[0]
        bad = dataclasses.replace(
            good, drift=dataclasses.replace(good.drift, b_y=lambda t: float("nan"))
        )
        cfg = SweepConfig(
            problem="custom", N_list=[4, 8], L=200, rho=0.5, eps0=1e-3, basis_K=6
        )
        vp = VectorProblem(components=(good, bad))
        reports = run_sweep(cfg, problem=vp, write=False)
        for report in reports:
            assert [row.N for row in report.rows] == [4, 8]
        for N, row in zip(cfg.N_list, reports[0].rows):
            assert row_matches(row, good, standalone(good, cfg, N, 0))
        assert reports[0].rows[1].control_rate is not None
        assert list(reports[0].results) == [4, 8] and reports[1].results == {}
        for row in reports[1].rows:
            assert row.failure.startswith("SimulationError: ")
            assert row.state_integral is None and row.iterations is None


class TestOneNSweepAndCli:
    def test_one_n_sweep_row_and_result(self):
        cfg = SweepConfig(
            problem="example2", N_list=[8], L=300, rho=0.1, eps0=1e-3, seed=3, basis_K=8
        )
        (report,) = run_sweep(cfg, write=False)
        assert list(report.results) == [8] and len(report.rows) == 1
        assert report.rows[0].N == 8
        assert report.rows[0].state_integral == report.results[8].state_integral

    def test_cli_list_problems(self, capsys):
        assert cli.main(["list-problems"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["example1", "example2", "example3"]

    def test_cli_solve_and_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "problem = example2\nN_list = 4, 8\nL = 200\nrho = 0.1\n"
            f"eps0 = 1e-3\nseed = 5\nbasis.K = 8\noutput.dir = {tmp_path}\n"
        )
        assert cli.main(["solve", "--config", str(cfg_path), "--N", "8"]) == 0
        out = capsys.readouterr().out
        assert "state integral" in out
        assert "of which set-up" in out and "feasibility" in out
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out
        assert (tmp_path / "example2_voronoi_report.csv").exists()

    @pytest.mark.parametrize("N", ["0", "1", "-3"])
    def test_cli_solve_rejects_grid_size_below_two(self, tmp_path, capsys, N):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("problem = example2\nN_list = 4\nL = 50\nseed = 1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--config", str(cfg_path), "--N", N])
        assert exc.value.code == 2
        assert f"--N must be >= 2, got {N}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["solve", "sweep"])
    @pytest.mark.parametrize("case", list(BAD_PROBLEMS))
    def test_cli_rejects_bad_problem_parameters(self, tmp_path, capsys, cmd, case):
        text, message = BAD_PROBLEMS[case]
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(text + f"L = 20\noutput.dir = {tmp_path / 'out'}\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, "--config", str(cfg_path), "--strict"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and str(cfg_path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["solve", "sweep"])
    def test_cli_reports_parse_errors_without_traceback(
        self, tmp_path, capsys, monkeypatch, cmd
    ):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("problem = example2\nN_list = 8\nL = abc\n")
        nan_path = tmp_path / "nan.cfg"
        nan_path.write_text("problem = example2\nN_list = 4, 8\nL = 200\nrho = nan\n")
        # an empty output.dir would fail only once every solve had run
        no_dir = tmp_path / "no_dir.cfg"
        no_dir.write_text("problem = example2\nN_list = 4, 8\nL = 200\noutput.dir =\n")
        for path, message in (
            (cfg_path, f"{cfg_path}:3: bad value for 'L'"),
            (nan_path, f"{nan_path}:4: bad value for 'rho'"),
            (no_dir, f"{no_dir}: output.dir must not be empty"),
            (tmp_path / "missing.cfg", "No such file"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main([cmd, "--config", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "problem_lines, n_solves, n_ensembles, regressions_per_step",
        [
            ("problem = example1\nd = 2\n", 4, 2, 1),
            ("problem = example2\n", 2, 2, 2),
            ("problem = example3\nbasis.kind = HC\n", 2, 2, 2),
        ],
        ids=["example1-d2", "example2", "example3-hc"],
    )
    def test_traced_smoke_sweep_reaches_every_layer(
        self, tmp_path, capsys, monkeypatch, problem_lines, n_solves, n_ensembles,
        regressions_per_step,
    ):
        # the span tracer of the sweep benchmark, loaded unedited, must still
        # find every layer it wraps, with one partition per P-regression plus
        # one Q-regression unless sigma_y and sigma_u are both ZERO (example1),
        # and count each (N, component) solve exactly once and each ensemble
        # once per N, which example1's components on one grid share
        tracing = load_perfbench(monkeypatch, "tracing")
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            f"{problem_lines}N_list = 4, 8\nL = 200\noutput.dir = {tmp_path / 'out'}\n"
        )
        tracer = tracing.Tracer("smoke")
        with tracer.sweep():
            assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        metrics = tracer.sweep_metrics(0)
        assert metrics["lsmc.build_partition.calls"] > 0
        assert metrics["lsmc.regress.calls"] == (
            regressions_per_step * metrics["lsmc.build_partition.calls"]
        )
        assert metrics["optimizer.solve.calls"] == n_solves
        assert metrics["paths.gen_brownian.calls"] == n_ensembles

    def test_cli_strict_fails_on_an_inexact_restoration(self, monkeypatch, tmp_path, capsys):
        # a projection that restores half the excess breaks example2's exact
        # restoration (sigma_y = ZERO, normalized increments): each row fails
        update = optimizer.project_update
        monkeypatch.setattr(
            optimizer, "project_update",
            lambda u_half, mu, *rest: update(u_half, 0.5 * mu, *rest),
        )
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "problem = example2\nN_list = 4, 8\nL = 200\nrho = 0.1\neps0 = 1e-3\n"
            f"seed = 5\nbasis.K = 8\noutput.dir = {tmp_path}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_path), "--strict"]) == 1
        out = capsys.readouterr().out
        for n in (4, 8):
            assert f"# N={n} FAILED: SimulationError: feasibility residual " in out
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        capsys.readouterr()

    def test_cli_strict_propagates_failure(self, monkeypatch, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("problem = example2\nN_list = 4\nL = 4\nseed = 1\n")

        def boom(cfg, problem=None, write=True):
            rep = RunReport(component=1, metadata={})
            rep.rows = [RunRow(N=4, failure="SimulationError: boom")]
            return [rep]

        monkeypatch.setattr(cli.bench, "run_sweep", boom)
        for cmd in ("sweep", "solve"):
            assert cli.main([cmd, "--config", str(cfg_path), "--strict"]) == 1
            assert cli.main([cmd, "--config", str(cfg_path)]) == 0
            assert "FAILED: SimulationError: boom" in capsys.readouterr().out

    def test_cli_solve_reports_each_failed_component(self, monkeypatch, tmp_path, capsys):
        # a hard failure of component 2 leaves component 1's summary printed
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "problem = example1\nd = 2\nN_list = 4, 8\nL = 200\nrho = 0.5\n"
            f"eps0 = 1e-3\nseed = 1\nbasis.K = 8\noutput.dir = {tmp_path}\n"
        )
        real_solve = bench.solve

        def solve(problem, config, u0, workspace):
            if problem.name == "example1[2]":
                raise SimulationError("boom")
            return real_solve(problem, config, u0, workspace)

        monkeypatch.setattr(bench, "solve", solve)
        for flags, code in (([], 0), (["--strict"], 1)):
            assert cli.main(["solve", "--config", str(cfg_path), *flags]) == code
            captured = capsys.readouterr()
            assert "example1 component 1: converged in " in captured.out
            assert "state integral" in captured.out
            assert "example1 component 2: FAILED: SimulationError: boom" in captured.out
            assert captured.err == ""

    def test_cli_strict_fails_on_nonconverged_row(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "problem = example2\nN_list = 4\nL = 50\nmax_iters = 1\n"
            f"eps0 = 1e-12\nseed = 1\nbasis.K = 4\noutput.dir = {tmp_path}\n"
        )
        for cmd in ("sweep", "solve"):
            assert cli.main([cmd, "--config", str(cfg_path)]) == 0
            assert cli.main([cmd, "--config", str(cfg_path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "# N=4 NOT converged in 1 iterations" in out
        assert "FAILED" not in out

    def test_cli_strict_fails_on_diverged_rows(self, tmp_path, capsys):
        # example2 with rho = 50: the control step grows every iteration, so
        # each solve stops at the divergence rule and not at max_iters
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text(
            "problem = example2\nalpha = 0.1\nN_list = 8, 16\nL = 2000\nrho = 50\n"
            "eps0 = 1e-4\nmax_iters = 60\nseed = 12345\nbasis.kind = VP\n"
            f"basis.K = 30\noutput.dir = {tmp_path}\noutput.formats = csv, json\n"
        )
        assert cli.main(["sweep", "--config", str(cfg_path), "--strict"]) == 1
        out = capsys.readouterr().out
        for n in (8, 16):
            assert f"# N={n} FAILED: SimulationError: diverged at iteration" in out
        payload = json.loads((tmp_path / "example2_voronoi_report.json").read_text())
        for row in payload["components"][0]["rows"]:
            assert row["failure"].startswith("SimulationError: diverged at iteration ")
            assert all(v is None for k, v in row.items() if k not in ("N", "failure"))
        lines = (tmp_path / "example2_voronoi_report.csv").read_text().splitlines()
        assert lines[1:] == ["8,,,,,,,", "16,,,,,,,"]
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
