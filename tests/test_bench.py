"""Harness tests: rates, order fits, config parsing, reports, CLI."""

import glob
import importlib.util
import json
import os
import sys

import pytest

from socproj import cli
from socproj.bench import (
    CSV_HEADER,
    OUTPUT_DIR_ENV,
    RunReport,
    RunRow,
    SweepConfig,
    build_problem,
    fit_order,
    parse_config,
    rate,
    report_csv_lines,
    run_single,
    run_sweep,
)
from socproj.problems import VectorProblem
from tests.test_optimizer import contraction_problem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
        rep = RunReport(problem="x", component=1, metadata={})
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
        path.write_text("problem = example2\nN_list = 8\nwat = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(str(path))

    def test_missing_problem_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("N_list = 8, 16\n")
        with pytest.raises(ValueError, match="problem"):
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
        [("L = 0", "L must be >= 1, got 0"), ("rho = 0", "rho must be positive")],
    )
    def test_bad_solver_knob_rejected_at_parse_time(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = example2\nN_list = 8\n{line}\n")
        with pytest.raises(ValueError, match=message):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "problem, key",
        [("example1", "delta"), ("example2", "delta"), ("example2", "d"), ("example3", "d")],
    )
    def test_key_the_problem_ignores_rejected(self, tmp_path, problem, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = {problem}\nN_list = 8\n{key} = 2\n")
        with pytest.raises(ValueError, match=f"'{key}' does not apply to problem {problem}"):
            parse_config(str(path))

    def test_shipped_configs_parse(self):
        paths = sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg")))
        assert len(paths) == 4
        for path in paths:
            build_problem(parse_config(path))

    def test_benchmark_configs_parse(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(REPO_ROOT, "perfbench", "run.py")
        )
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        assert len(run.WORKLOADS) == 3
        for workload in run.WORKLOADS:
            path = str(tmp_path / f"{workload}.cfg")
            run.write_config(workload, 7, str(tmp_path / workload), path)
            build_problem(parse_config(path))

    def test_build_problem_dispatch(self):
        assert build_problem(SweepConfig(problem="example2", N_list=[8])).name == "example2"
        vp = build_problem(SweepConfig(problem="example1", N_list=[8], d=3))
        assert isinstance(vp, VectorProblem) and vp.d == 3
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
        rep = RunReport(problem="x", component=1, metadata={})
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

    def test_failures_recorded_and_sweep_continues(self):
        bad = contraction_problem()
        bad = type(bad)(
            name="nan-drift",
            drift=type(bad.drift)(
                b_y=lambda t: float("nan"),
                b_u=lambda t: 1.0,
                m=lambda t: 0.0,
                lip_bound=2.0,
                lower_bound=1.0,
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


class TestRunSingleAndCli:
    def test_run_single_row(self):
        cfg = SweepConfig(
            problem="example2", N_list=[8], L=300, rho=0.1, eps0=1e-3, seed=3, basis_K=8
        )
        results, rows = run_single(cfg)
        assert len(results) == 1 and len(rows) == 1
        assert rows[0].N == 8
        assert rows[0].state_integral == results[0].state_integral

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
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out
        assert (tmp_path / "example2_voronoi_report.csv").exists()

    def test_cli_strict_propagates_failure(self, monkeypatch, tmp_path, capsys):
        cfg_path = tmp_path / "cfg"
        cfg_path.write_text("problem = example2\nN_list = 4\nL = 4\nseed = 1\n")

        def boom(cfg, problem=None, write=True):
            rep = RunReport(problem="example2", component=1, metadata={})
            rep.rows = [RunRow(N=4, failure="SimulationError: boom")]
            return [rep]

        monkeypatch.setattr(cli.bench, "run_sweep", boom)
        assert cli.main(["sweep", "--config", str(cfg_path), "--strict"]) == 1
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        capsys.readouterr()

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
