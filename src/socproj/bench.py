"""Experiment harness: flat-file configs, convergence sweeps, CSV/JSON reports.

A sweep solves one problem on a list of grid sizes, measures control and
multiplier errors against the problem's reference solution where one exists,
and emits one report per problem component.  The control-error column is the
L2 norm of the difference between the computed step control and the reference
control sampled at the left grid nodes, which is the discrete error the
benchmark tables track (the continuous L2 distance to the reference is
available separately via ``gridfn.l2_dist_to_function``).

Config files are flat ``key = value`` text (see ``CONFIG_KEYS``; a key the
chosen problem would ignore, see ``IGNORED_KEYS``, is an error); reports are
CSV with the fixed header ``N,control_error,control_rate,multiplier_error,
multiplier_rate,state_integral,iterations,wall_time_s`` plus a JSON mirror and
per-N control-trajectory files for plotting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .gridfn import StepFunction, TimeGrid, constant_control, l2_dist, nodal_sample
from .lsmc import HYPERCUBE, VORONOI, BasisSpec
from .optimizer import SolveConfig, SolveResult, solve, solve_vector
from .paths import derive_seed
from .problems import (
    EXAMPLE3_DELTA_ACTIVE,
    ProblemSpec,
    VectorProblem,
    example1,
    example2,
    example3,
)

CSV_HEADER = (
    "N,control_error,control_rate,multiplier_error,multiplier_rate,"
    "state_integral,iterations,wall_time_s"
)

PROBLEM_IDS = ("example1", "example2", "example3")

#: Environment variable overriding ``output.dir``.
OUTPUT_DIR_ENV = "SOCPROJ_OUTPUT_DIR"

_BASIS_ALIASES = {
    "hc": HYPERCUBE,
    "hypercube": HYPERCUBE,
    "vp": VORONOI,
    "voronoi": VORONOI,
}


@dataclass
class SweepConfig:
    """Everything one sweep needs; mirrors the config-file schema."""

    problem: str
    N_list: list[int]
    L: int = 2000
    rho: float = 0.1
    rho_schedule: str = "constant"
    eps0: float = 1e-4
    max_iters: int = 500
    seed: int = 7071
    d: int = 1
    alpha: float = 0.1
    mu_star: Optional[float] = None
    delta: Optional[float] = None
    basis_kind: str = VORONOI
    basis_K: int = 30
    basis_K_tilde: Optional[int] = None
    basis_tau_rule: bool = False
    u0: float = 0.0
    self_convergence: bool = False
    normalize_increments: bool = True
    N: Optional[int] = None
    output_dir: str = "out"
    output_formats: list[str] = field(default_factory=lambda: ["csv", "json"])

    def __post_init__(self) -> None:
        if not self.N_list:
            raise ValueError("N_list must not be empty")
        if any(n < 2 for n in self.N_list):
            raise ValueError("every N in N_list must be >= 2")
        if any(b >= a for a, b in zip(self.N_list[1:], self.N_list)):
            raise ValueError("N_list must be strictly increasing")
        self.solve_config(self.seed)  # bad solver knobs fail at parse time, not per N

    def basis(self) -> BasisSpec:
        return BasisSpec(
            kind=self.basis_kind,
            K=self.basis_K,
            K_tilde=self.basis_K_tilde,
            tau_rule=self.basis_tau_rule,
        )

    def solve_config(self, seed: int) -> SolveConfig:
        return SolveConfig(
            rho=self.rho,
            eps0=self.eps0,
            L=self.L,
            basis=self.basis(),
            seed=seed,
            rho_schedule=self.rho_schedule,
            max_iters=self.max_iters,
            normalize_increments=self.normalize_increments,
        )


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.replace(",", " ").split()]


def _parse_str_list(s: str) -> list[str]:
    return [tok.strip().lower() for tok in s.split(",") if tok.strip()]


def _parse_basis_kind(s: str) -> str:
    kind = _BASIS_ALIASES.get(s.strip().lower())
    if kind is None:
        raise ValueError(f"unknown basis kind {s!r} (use hypercube/HC or voronoi/VP)")
    return kind


#: config-file key -> (SweepConfig attribute, parser)
CONFIG_KEYS = {
    "problem": ("problem", str.strip),
    "d": ("d", int),
    "alpha": ("alpha", float),
    "mu_star": ("mu_star", float),
    "delta": ("delta", float),
    "N_list": ("N_list", _parse_int_list),
    "N": ("N", int),
    "L": ("L", int),
    "rho": ("rho", float),
    "rho_schedule": ("rho_schedule", str.strip),
    "eps0": ("eps0", float),
    "max_iters": ("max_iters", int),
    "seed": ("seed", int),
    "u0": ("u0", float),
    "self_convergence": ("self_convergence", _parse_bool),
    "normalize_increments": ("normalize_increments", _parse_bool),
    "basis.kind": ("basis_kind", _parse_basis_kind),
    "basis.K": ("basis_K", int),
    "basis.K_tilde": ("basis_K_tilde", int),
    "basis.tau_rule": ("basis_tau_rule", _parse_bool),
    "output.dir": ("output_dir", str.strip),
    "output.formats": ("output_formats", _parse_str_list),
}


#: problem -> config keys its built-in ignores; setting one is an error
IGNORED_KEYS = {
    "example1": ("delta",),
    "example2": ("delta", "d"),
    "example3": ("d",),
}


def parse_config(path: str) -> SweepConfig:
    """Read a flat ``key = value`` UTF-8 file; '#' starts a comment."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    if "problem" not in raw:
        raise ValueError(f"{path}: missing required key 'problem'")
    if "N_list" not in raw and "N" not in raw:
        raise ValueError(f"{path}: need N_list (or N)")
    for key in IGNORED_KEYS.get(raw["problem"], ()):
        if key in raw:
            raise ValueError(
                f"{path}: key {key!r} does not apply to problem {raw['problem']}"
            )
    kwargs = {}
    for key, value in raw.items():
        attr, parser = CONFIG_KEYS[key]
        kwargs[attr] = parser(value)
    if "N_list" not in kwargs:
        kwargs["N_list"] = [kwargs["N"]]
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        kwargs["output_dir"] = env_dir
    return SweepConfig(**kwargs)


def build_problem(cfg: SweepConfig) -> Union[ProblemSpec, VectorProblem]:
    """Instantiate the configured built-in problem."""
    if cfg.problem == "example1":
        mu = 0.3 if cfg.mu_star is None else cfg.mu_star
        return example1(d=cfg.d, mu=mu, alpha=cfg.alpha)
    if cfg.problem == "example2":
        return example2(alpha=cfg.alpha)
    if cfg.problem == "example3":
        delta = EXAMPLE3_DELTA_ACTIVE if cfg.delta is None else cfg.delta
        mu_star = 1.0 if cfg.mu_star is None else cfg.mu_star
        return example3(alpha=cfg.alpha, delta=delta, mu_star=mu_star)
    raise ValueError(
        f"unknown problem {cfg.problem!r}; built-ins are {', '.join(PROBLEM_IDS)}"
    )


@dataclass
class RunRow:
    N: int
    control_error: Optional[float] = None
    control_rate: Optional[float] = None
    multiplier_error: Optional[float] = None
    multiplier_rate: Optional[float] = None
    state_integral: Optional[float] = None
    iterations: Optional[int] = None
    wall_time_s: Optional[float] = None
    converged: Optional[bool] = None
    failure: Optional[str] = None


@dataclass
class RunReport:
    """Per-component sweep results plus the settings that produced them."""

    problem: str
    component: int
    metadata: dict
    rows: list[RunRow] = field(default_factory=list)


def rate(e1: float, N1: int, e2: float, N2: int) -> float:
    """Observed order between two rows: ln(e1/e2) / ln(N2/N1)."""
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("errors must be positive")
    if N2 <= N1:
        raise ValueError("need N2 > N1")
    return math.log(e1 / e2) / math.log(N2 / N1)


def fit_order(report: RunReport, column: str = "control_error") -> float:
    """Least-squares slope of log error against log N, sign-normalized so a
    first-order column maps to ~1.0.  Needs at least three usable rows."""
    pts = [
        (row.N, getattr(row, column))
        for row in report.rows
        if getattr(row, column) is not None and getattr(row, column) > 0.0
    ]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 positive rows in {column!r}, have {len(pts)}")
    logn = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    slope = np.polyfit(logn, loge, 1)[0]
    return float(-slope)


def _fill_rates(rows: list[RunRow], err_attr: str, rate_attr: str) -> None:
    prev: Optional[RunRow] = None
    for row in rows:
        err = getattr(row, err_attr)
        if err is None or err <= 0.0:
            prev = None
            continue
        if prev is not None:
            setattr(row, rate_attr, rate(getattr(prev, err_attr), prev.N, err, row.N))
        prev = row


def run_sweep(
    cfg: SweepConfig,
    problem: Optional[Union[ProblemSpec, VectorProblem]] = None,
    write: bool = True,
) -> list[RunReport]:
    """Run the configured solve at every N and assemble per-component reports.

    ``problem`` overrides the built-in lookup (library use only).  Per-N
    failures are recorded in the row and the sweep continues.
    """
    prob = build_problem(cfg) if problem is None else problem
    components: tuple[ProblemSpec, ...]
    if isinstance(prob, VectorProblem):
        components = prob.components
    else:
        components = (prob,)

    meta = {
        "problem": cfg.problem,
        "seed": cfg.seed,
        "L": cfg.L,
        "rho": cfg.rho,
        "rho_schedule": cfg.rho_schedule,
        "eps0": cfg.eps0,
        "max_iters": cfg.max_iters,
        "basis_kind": cfg.basis_kind,
        "basis_K": cfg.basis_K,
        "alpha": cfg.alpha,
        "u0": cfg.u0,
        "normalize_increments": cfg.normalize_increments,
        "delta": [c.delta for c in components],
    }
    reports = [
        RunReport(problem=cfg.problem, component=k + 1, metadata=dict(meta))
        for k in range(len(components))
    ]
    controls: dict[tuple[int, int], StepFunction] = {}

    for N in cfg.N_list:
        try:
            results = _solve_one_n(cfg, prob, components, N)
        except Exception as exc:  # per-N hard failure: record, keep sweeping
            for report in reports:
                report.rows.append(RunRow(N=N, failure=f"{type(exc).__name__}: {exc}"))
            continue
        for k, (comp, res) in enumerate(zip(components, results)):
            reports[k].rows.append(_row_for(comp, res, N))
            controls[(k, N)] = res.u_final

    _fill_self_convergence(cfg, components, reports, controls)
    for report in reports:
        _fill_rates(report.rows, "control_error", "control_rate")
        _fill_rates(report.rows, "multiplier_error", "multiplier_rate")
    if write:
        write_outputs(cfg, components, reports, controls)
    return reports


def _solve_one_n(
    cfg: SweepConfig,
    prob: Union[ProblemSpec, VectorProblem],
    components: tuple[ProblemSpec, ...],
    N: int,
) -> list[SolveResult]:
    """Run the configured solve at one grid size; the per-N seed is derived
    deterministically from the base seed."""
    seed_n = derive_seed(cfg.seed, N)
    grid = TimeGrid(T=components[0].T, N=N)
    u0 = constant_control(grid, cfg.u0)
    solve_cfg = cfg.solve_config(seed_n)
    if isinstance(prob, VectorProblem):
        return solve_vector(prob, solve_cfg, u0)
    return [solve(prob, solve_cfg, u0)]


def _row_for(comp: ProblemSpec, res: SolveResult, N: int) -> RunRow:
    """Assemble one report row; the state-integral column is the solve's own
    integral of its final control on its ensemble."""
    row = RunRow(
        N=N,
        state_integral=res.state_integral,
        iterations=res.iterations,
        wall_time_s=res.wall_time,
        converged=res.converged,
    )
    if comp.exact is not None and comp.exact.u_star is not None:
        row.control_error = l2_dist(
            res.u_final, nodal_sample(comp.exact.u_star, res.u_final.grid)
        )
    if comp.exact is not None and comp.exact.mu_star is not None:
        row.multiplier_error = abs(res.mu_final - comp.exact.mu_star)
    return row


def _fill_self_convergence(cfg, components, reports, controls) -> None:
    """When enabled, measure problems without a reference control against the
    finest-N solution (its own row stays blank)."""
    if not cfg.self_convergence:
        return
    finest = max(cfg.N_list)
    for k, comp in enumerate(components):
        if comp.exact is not None and comp.exact.u_star is not None:
            continue
        ref = controls.get((k, finest))
        if ref is None:
            continue
        for row in reports[k].rows:
            if row.N == finest or row.failure is not None:
                continue
            u = controls.get((k, row.N))
            if u is not None:
                row.control_error = l2_dist(u, nodal_sample(ref, u.grid))


def _fmt_sci(x: float) -> str:
    """Five significant digits with a trimmed exponent, e.g. 5.2988e-3."""
    mantissa, exp = f"{x:.4e}".split("e")
    return f"{mantissa}e{int(exp)}"


def _fmt_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in ("control_error", "multiplier_error"):
        return _fmt_sci(value)
    if name in ("control_rate", "multiplier_rate"):
        return f"{value:.2f}"
    if name == "state_integral":
        return f"{value:.5f}"
    if name == "wall_time_s":
        return f"{value:.3f}"
    return str(value)


def report_csv_lines(report: RunReport) -> list[str]:
    lines = [CSV_HEADER]
    for row in report.rows:
        cells = [str(row.N)] + [
            _fmt_cell(name, getattr(row, name))
            for name in (
                "control_error",
                "control_rate",
                "multiplier_error",
                "multiplier_rate",
                "state_integral",
                "iterations",
                "wall_time_s",
            )
        ]
        lines.append(",".join(cells))
    return lines


def _report_stem(cfg: SweepConfig, component: int, n_components: int) -> str:
    stem = f"{cfg.problem}_{cfg.basis_kind}"
    if n_components > 1:
        stem += f"_c{component}"
    return stem


def write_outputs(cfg, components, reports, controls) -> list[str]:
    """Write the requested report files; returns the paths written."""
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    if "csv" in cfg.output_formats:
        for report in reports:
            stem = _report_stem(cfg, report.component, len(reports))
            path = os.path.join(outdir, f"{stem}_report.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report_csv_lines(report)) + "\n")
            written.append(path)
        written.extend(_write_trajectories(cfg, components, reports, controls))
    if "json" in cfg.output_formats:
        path = os.path.join(outdir, f"{cfg.problem}_{cfg.basis_kind}_report.json")
        payload = {
            "metadata": reports[0].metadata,
            "components": [
                {
                    "component": report.component,
                    "rows": [
                        {k: v for k, v in vars(row).items()} for row in report.rows
                    ],
                }
                for report in reports
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def _write_trajectories(cfg, components, reports, controls) -> list[str]:
    """Per-N control trajectories: node, numerical value, exact value."""
    written = []
    for k, comp in enumerate(components):
        stem = _report_stem(cfg, k + 1, len(components))
        for N in cfg.N_list:
            u = controls.get((k, N))
            if u is None:
                continue
            path = os.path.join(cfg.output_dir, f"{stem}_control_N{N}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("node,numerical,exact\n")
                for n in range(u.grid.N):
                    t = u.grid.nodes[n]
                    exact = ""
                    if comp.exact is not None and comp.exact.u_star is not None:
                        exact = repr(float(comp.exact.u_star(float(t))))
                    fh.write(f"{t!r},{u.values[n]!r},{exact}\n")
            written.append(path)
    return written


def run_single(
    cfg: SweepConfig,
    N: Optional[int] = None,
    problem: Optional[Union[ProblemSpec, VectorProblem]] = None,
) -> tuple[list[SolveResult], list[RunRow]]:
    """One solve at a single N (default: the N key, else the first entry of
    N_list); returns the raw results and one report row per component."""
    n = (cfg.N if cfg.N is not None else cfg.N_list[0]) if N is None else N
    prob = build_problem(cfg) if problem is None else problem
    components = prob.components if isinstance(prob, VectorProblem) else (prob,)
    results = _solve_one_n(cfg, prob, components, n)
    rows = [_row_for(comp, res, n) for comp, res in zip(components, results)]
    return results, rows
