"""Experiment harness: flat-file configs, convergence sweeps, CSV/JSON reports.

A sweep solves each component of one problem on a list of grid sizes, one
solve per (N, component) whose hard failure blanks only its own row (the
components on one grid share a Brownian ensemble per N), measures control
and multiplier errors against the reference solution where one exists, and
emits one report per component.  The control-error column is the L2 norm of
the difference between the computed step control and the reference control
sampled at the left grid nodes, the discrete error the tables track.

Config files are flat ``key = value`` text, a key per ``SweepConfig`` field
(``CONFIG_KEYS``; a key the chosen problem would ignore, see ``IGNORED_KEYS``,
is an error); reports are CSV with a column per ``RunRow`` field but
``converged`` and ``failure``, per-N control-trajectory CSVs for plotting,
and a JSON mirror whose metadata holds the whole ``SweepConfig``: ``delta``
lists each component's constraint level, ``config_delta`` the config's own.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Union, get_type_hints

import numpy as np

from . import __version__
from .gridfn import TimeGrid, constant_control, l2_dist, nodal_sample
from .lsmc import HYPERCUBE, VORONOI, BasisSpec, Workspace
from .optimizer import RHO_CONSTANT, SolveConfig, SolveResult, solve
from .paths import derive_seed
from .problems import (
    EXAMPLE3_DELTA_ACTIVE,
    ProblemSpec,
    VectorProblem,
    example1,
    example2,
    example3,
)

__all__ = [
    "RunReport",
    "RunRow",
    "SweepConfig",
    "build_problem",
    "parse_config",
    "rate",
    "run_sweep",
]

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
    """Everything one sweep needs; mirrors the config-file schema and its rules:
    a field the problem ignores (``IGNORED_KEYS``) keeps its default."""

    problem: str
    N_list: list[int]
    L: int = 2000
    rho: float = 0.1
    rho_schedule: str = RHO_CONSTANT
    eps0: float = 1e-4
    max_iters: int = 500
    seed: int = 7071
    d: int = 1
    alpha: float = 0.1
    mu_star: Optional[float] = None
    delta: Optional[float] = None
    basis_kind: str = VORONOI
    basis_K: int = 30
    u0: float = 0.0
    self_convergence: bool = False
    normalize_increments: bool = True
    output_dir: str = "out"
    output_formats: list[str] = field(default_factory=lambda: ["csv", "json"])

    def __post_init__(self) -> None:
        if not self.N_list:
            raise ValueError("N_list must not be empty")
        if any(n < 2 for n in self.N_list):
            raise ValueError("every N in N_list must be >= 2")
        if any(b >= a for a, b in zip(self.N_list[1:], self.N_list)):
            raise ValueError("N_list must be strictly increasing")
        if not self.output_dir:
            raise ValueError("output.dir must not be empty")
        if not self.output_formats or set(self.output_formats) - {"csv", "json"}:
            raise ValueError(
                f"output.formats must be csv and/or json, got {self.output_formats}"
            )
        for name in ("alpha", "mu_star", "delta", "u0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        defaults = {f.name: f.default for f in fields(self)}
        for key in IGNORED_KEYS.get(self.problem, ()):
            attr = CONFIG_KEYS[key][0]
            value = getattr(self, attr)
            if value != defaults[attr]:
                raise ValueError(f"{attr} = {value!r} does not apply to {self.problem}")
        self.solve_config(self.seed)  # bad solver knobs fail at parse time, not per N
        if self.problem in PROBLEM_IDS:
            build_problem(self)  # so do a built-in's bad parameters

    def basis(self) -> BasisSpec:
        return BasisSpec(kind=self.basis_kind, K=self.basis_K)

    def solve_config(self, seed: int) -> SolveConfig:
        """SolveConfig from the fields of the same name, the basis and ``seed``."""
        own = {f.name for f in fields(self)}
        shared = {
            f.name: getattr(self, f.name) for f in fields(SolveConfig) if f.name in own
        }
        return SolveConfig(**{**shared, "basis": self.basis(), "seed": seed})


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.replace(",", " ").split()]


def _parse_str_list(s: str) -> list[str]:
    return [tok.strip().lower() for tok in s.split(",") if tok.strip()]


def _parse_basis_kind(s: str) -> str:
    kind = _BASIS_ALIASES.get(s.strip().lower())
    if kind is None:
        raise ValueError(f"unknown basis kind {s!r} (use hypercube/HC or voronoi/VP)")
    return kind


_PARSERS = {
    str: str.strip,
    int: int,
    float: _parse_float,
    Optional[float]: _parse_float,
    bool: _parse_bool,
    list[int]: _parse_int_list,
    list[str]: _parse_str_list,
}

#: config-file key -> (SweepConfig attribute, parser of its type or aliases)
CONFIG_KEYS = {
    (attr.replace("_", ".", 1) if attr.startswith(("basis_", "output_")) else attr): (
        attr, _parse_basis_kind if attr == "basis_kind" else _PARSERS[hint]
    )
    for attr, hint in get_type_hints(SweepConfig).items()
}


#: problem -> config keys its built-in ignores; setting one is an error
IGNORED_KEYS = {
    "example1": ("delta", "self_convergence"),
    "example2": ("delta", "d", "mu_star", "self_convergence"),
    "example3": ("d",),
}


def parse_config(path: str) -> SweepConfig:
    """Read a flat ``key = value`` UTF-8 file; '#' starts a comment.  Every
    error names the file (a bad value its line and key); the problem is built."""
    raw: dict[str, tuple[int, str]] = {}
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
            if key in raw:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            raw[key] = (lineno, value)
    for key in ("problem", "N_list"):
        if key not in raw:
            raise ValueError(f"{path}: missing required key {key!r}")
    problem = raw["problem"][1]
    for key in IGNORED_KEYS.get(problem, ()):
        if key in raw:
            raise ValueError(f"{path}: key {key!r} does not apply to problem {problem}")
    kwargs = {}
    for key, (lineno, value) in raw.items():
        attr, parser = CONFIG_KEYS[key]
        try:
            kwargs[attr] = parser(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        kwargs["output_dir"] = env_dir
    try:
        cfg = SweepConfig(**kwargs)  # builds a built-in problem once
        if cfg.problem not in PROBLEM_IDS:
            raise _unknown_problem(cfg.problem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg


def _unknown_problem(problem: str) -> ValueError:
    return ValueError(f"unknown problem {problem!r}; built-ins are {', '.join(PROBLEM_IDS)}")


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
    raise _unknown_problem(cfg.problem)


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


#: report CSV columns: every ``RunRow`` field but those only the JSON holds
CSV_COLUMNS = tuple(f.name for f in fields(RunRow) if f.name not in ("converged", "failure"))
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class RunReport:
    """Per-component sweep results plus the settings that produced them;
    ``results`` holds each successful solve by N and is never written."""

    component: int
    metadata: dict
    rows: list[RunRow] = field(default_factory=list)
    results: dict[int, SolveResult] = field(default_factory=dict)


def rate(e1: float, N1: int, e2: float, N2: int) -> float:
    """Observed order between two rows: ln(e1/e2) / ln(N2/N1)."""
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("errors must be positive")
    if N2 <= N1:
        raise ValueError("need N2 > N1")
    return math.log(e1 / e2) / math.log(N2 / N1)


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
    """Solve every component at every N and assemble per-component reports.

    ``problem`` overrides the built-in lookup (library use only).  Each
    successful solve is kept in its report's ``results``; a hard failure is
    recorded in its own (N, component) row, and the sweep continues.

    The solves at N take the seed derive_seed(seed, N); a vector problem's
    component takes derive_seed(that, j), j the index of the first component
    with its T, so the components on one grid share one ensemble (common
    random numbers) and those on different grids draw distinct ones.
    """
    prob = build_problem(cfg) if problem is None else problem
    vector = isinstance(prob, VectorProblem)
    components = prob.components if vector else (prob,)

    # "delta" is each component's constraint level; the config's own value
    # is "config_delta", so the metadata rebuilds the config.
    meta = {
        **asdict(cfg),
        "delta": [c.delta for c in components],
        "config_delta": cfg.delta,
        "socproj_version": __version__,
        "numpy_version": np.__version__,
    }
    reports = [
        RunReport(component=k + 1, metadata=dict(meta))
        for k in range(len(components))
    ]

    # components on one grid (the same T) share the seed of the first of them,
    # and run back to back, so the workspace draws their ensemble once per N
    first: dict[float, int] = {}
    for k, comp in enumerate(components):
        first.setdefault(comp.T, k)
    order = sorted(range(len(components)), key=lambda k: first[components[k].T])
    # every solve writes into one workspace, sized for the largest N
    workspace = Workspace(cfg.L, max(cfg.N_list))
    for N in cfg.N_list:
        seed_n = derive_seed(cfg.seed, N)
        for k in order:
            comp, report = components[k], reports[k]
            seed = derive_seed(seed_n, first[comp.T]) if vector else seed_n
            u0 = constant_control(TimeGrid(comp.T, N), cfg.u0)
            try:
                res = solve(comp, cfg.solve_config(seed), u0, workspace)
            except Exception as exc:  # hard failure: record, keep sweeping
                report.rows.append(RunRow(N=N, failure=f"{type(exc).__name__}: {exc}"))
                continue
            report.rows.append(_row_for(comp, res, N))
            report.results[N] = res

    _fill_self_convergence(cfg, components, reports)
    for report in reports:
        _fill_rates(report.rows, "control_error", "control_rate")
        _fill_rates(report.rows, "multiplier_error", "multiplier_rate")
    if write:
        write_outputs(cfg, components, reports)
    return reports


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


def _fill_self_convergence(cfg, components, reports) -> None:
    """When enabled, measure problems without a reference control against the
    finest-N solution (its own row stays blank)."""
    if not cfg.self_convergence:
        return
    finest = max(cfg.N_list)
    for comp, report in zip(components, reports):
        if comp.exact is not None and comp.exact.u_star is not None:
            continue
        ref = report.results.get(finest)
        if ref is None:
            continue
        for row in report.rows:
            res = report.results.get(row.N)
            if row.N != finest and res is not None:
                u = res.u_final
                row.control_error = l2_dist(u, nodal_sample(ref.u_final, u.grid))


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
    return [CSV_HEADER] + [
        ",".join(_fmt_cell(name, getattr(row, name)) for name in CSV_COLUMNS)
        for row in report.rows
    ]


def _report_stem(cfg: SweepConfig, component: Optional[int]) -> str:
    stem = os.path.join(cfg.output_dir, f"{cfg.problem}_{cfg.basis_kind}")
    return stem if component is None else f"{stem}_c{component}"


def write_outputs(cfg, components, reports) -> None:
    """Write the requested report files; with csv, each component's report
    and its per-N control trajectories: node, numerical value, exact value."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    if "csv" in cfg.output_formats:
        for comp, report in zip(components, reports):
            stem = _report_stem(cfg, report.component if len(reports) > 1 else None)
            with open(f"{stem}_report.csv", "w", encoding="utf-8") as fh:
                fh.write("\n".join(report_csv_lines(report)) + "\n")
            u_star = comp.exact.u_star if comp.exact is not None else None
            for N, res in report.results.items():
                u = res.u_final
                with open(f"{stem}_control_N{N}.csv", "w", encoding="utf-8") as fh:
                    fh.write("node,numerical,exact\n")
                    # tolist() gives Python floats, whose repr is a plain number
                    for t, value in zip(u.grid.nodes.tolist(), u.values.tolist()):
                        exact = "" if u_star is None else repr(float(u_star(t)))
                        fh.write(f"{t!r},{value!r},{exact}\n")
    if "json" in cfg.output_formats:
        payload = {
            "metadata": reports[0].metadata,
            "components": [
                {
                    "component": report.component,
                    "rows": [asdict(row) for row in report.rows],
                }
                for report in reports
            ],
        }
        with open(f"{_report_stem(cfg, None)}_report.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
