"""Span tracing for the sweep benchmark, kept entirely outside the program.

``bench``, ``optimizer`` and ``lsmc`` import their collaborators by name, so a
layer is traced by replacing that name in the module that calls it, for the
length of one sweep.  Nothing under ``src/`` changes.  Spans live in memory
(name, call site, start, end, parent span, solve id) and are written out once
the run ends.

A solve id is ``(workload, N, component)``.  Spans of the report-row
re-simulation that ``bench`` does after the solves carry the id of the row
they belong to; their call site is ``bench``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

from socproj import bench, lsmc, optimizer
from socproj.gridfn import TimeGrid
from socproj.problems import VectorProblem

# (calling module, name looked up there, layer the span is reported under).
# A missing name is skipped, so that a change which stops calling a layer from
# one site (say, bench reusing the solve's ensemble) needs no benchmark edit;
# a layer that sees no call from any site fails the run instead of reading 0.
PATCH_POINTS = (
    (bench, "solve", "optimizer.solve"),
    (optimizer, "solve", "optimizer.solve"),
    (bench, "gen_brownian", "paths.gen_brownian"),
    (bench, "euler_simulate", "paths.euler_simulate"),
    (bench, "mean_state_integral", "paths.mean_state_integral"),
    (bench, "write_outputs", "bench.write_outputs"),
    (optimizer, "gen_brownian", "paths.gen_brownian"),
    (optimizer, "solve_kernels", "detode.solve_kernels"),
    (optimizer, "euler_simulate", "paths.euler_simulate"),
    (optimizer, "mean_state_integral", "paths.mean_state_integral"),
    (optimizer, "solve_bsde_hat", "lsmc.solve_bsde_hat"),
    (optimizer, "gradient", "optimizer.gradient"),
    (optimizer, "project_update", "optimizer.project_update"),
    (lsmc, "build_partition", "lsmc.build_partition"),
    (lsmc, "regress", "lsmc.regress"),
)

LAYERS = ("bench.run_sweep",) + tuple(sorted({layer for _, _, layer in PATCH_POINTS}))

# Problem callbacks counted by ``problems.callback_calls``.
CALLBACKS = {
    "drift": ("b_y", "b_u", "m"),
    "diffusion": ("sigma", "sigma_y", "sigma_u"),
    "costs": ("h_y", "j_u", "g"),
}


class LayerNotCalled(RuntimeError):
    """A traced layer saw no call, so its metrics would silently read 0."""


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.name = value`` for each triple, restoring the old values on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    for module, name, value in replacements:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int
    solve: Optional[tuple]
    # Tracer bookkeeping done while this span was open; excluded from its time.
    book: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start - self.book


def _grid_n(args, kwargs) -> Optional[int]:
    """Grid size of the solve or ensemble a call belongs to."""
    for arg in (*args, *kwargs.values()):
        grid = arg if isinstance(arg, TimeGrid) else getattr(arg, "grid", None)
        if isinstance(grid, TimeGrid):
            return grid.N
    return None


class Tracer:
    """Collects the spans of one or more traced sweeps of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.sweeps: list[list[Span]] = []
        self.callback_calls: list[int] = []
        self.occupancy: list[list[int]] = []  # [occupied, built] cells per sweep

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, site, solve="inherit", after=None):
        """``solve`` is "open" for a call that starts a new solve or report row,
        "clear" for one that belongs to none, else the call inherits the id."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._spans, self._stack
            if solve == "open":
                n = _grid_n(args, kwargs)
                self._component[name, n] += 1
                self._solve = (self.workload, n, self._component[name, n])
            elif solve == "clear":
                self._solve = None
            span = Span(name, site, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self._solve)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result)
                spent = time.perf_counter() - t0
                for idx in stack:
                    spans[idx].book += spent
            return result

        return traced

    def _count_occupancy(self, args, kwargs, part) -> None:
        samples = np.asarray(args[0] if args else kwargs["samples"], dtype=float)
        occ = np.count_nonzero(np.bincount(part.assign(samples), minlength=part.n_cells))
        self.occupancy[-1][0] += int(occ)
        self.occupancy[-1][1] += part.n_cells

    def _counting_problem(self, prob):
        """The same problem with every coefficient and cost callback counted."""
        calls = self.callback_calls

        def counted(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                calls[-1] += 1
                return fn(*args, **kwargs)

            return call

        def spec(p):
            return dataclasses.replace(p, **{
                part: dataclasses.replace(
                    getattr(p, part),
                    **{f: counted(getattr(getattr(p, part), f)) for f in fields},
                )
                for part, fields in CALLBACKS.items()
            })

        if isinstance(prob, VectorProblem):
            return VectorProblem(components=tuple(spec(c) for c in prob.components))
        return spec(prob)

    @contextlib.contextmanager
    def sweep(self):
        """Trace the program for one sweep; restores every patched name on exit."""
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._solve: Optional[tuple] = None
        self._component: dict = defaultdict(int)
        self.sweeps.append(self._spans)
        self.callback_calls.append(0)
        self.occupancy.append([0, 0])

        original_run_sweep = bench.run_sweep

        def run_sweep(cfg, problem=None, write=True):
            prob = bench.build_problem(cfg) if problem is None else problem
            return original_run_sweep(cfg, self._counting_problem(prob), write)

        replacements = [(bench, "run_sweep",
                         self._wrap(run_sweep, "bench.run_sweep", "cli", solve="clear"))]
        for module, name, layer in PATCH_POINTS:
            if not hasattr(module, name):
                continue
            site = module.__name__.rsplit(".", 1)[-1]
            if layer == "optimizer.solve" or (site == "bench" and name == "gen_brownian"):
                solve = "open"
            elif layer == "bench.write_outputs":
                solve = "clear"
            else:
                solve = "inherit"
            replacements.append((module, name, self._wrap(
                getattr(module, name), layer, site, solve=solve,
                after=self._count_occupancy if layer == "lsmc.build_partition" else None,
            )))
        with patched(replacements):
            yield

    # -- reporting -----------------------------------------------------------

    def sweep_metrics(self, index: int) -> dict[str, float]:
        """Per-layer metrics of one traced sweep (times in s unless named ms)."""
        spans = self.sweeps[index]
        durs: dict[str, list[float]] = defaultdict(list)
        child = [0.0] * len(spans)
        for span in spans:
            durs[span.name].append(span.dur)
            if span.parent >= 0:
                child[span.parent] += span.dur
        missing = [layer for layer in LAYERS if not durs[layer]]
        if missing:
            raise LayerNotCalled(
                f"{self.workload}: no call reached {', '.join(missing)}; "
                "the program no longer calls these names where they are traced"
            )

        def self_s(name):
            return sum(s.dur - child[i] for i, s in enumerate(spans) if s.name == name)

        gaps = []
        for starts in self._bsde_starts(spans).values():
            gaps.extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
        occupied, built = self.occupancy[index]
        return {
            "paths.gen_brownian.calls": len(durs["paths.gen_brownian"]),
            "paths.gen_brownian.s": sum(durs["paths.gen_brownian"]),
            "bench.row_resim.s": sum(
                s.dur for s in spans if s.site == "bench" and s.name.startswith("paths.")
            ),
            "paths.euler_simulate.calls": len(durs["paths.euler_simulate"]),
            "paths.euler_simulate.s": sum(durs["paths.euler_simulate"]),
            "paths.euler_simulate.ms_p50": 1e3 * statistics.median(durs["paths.euler_simulate"]),
            "paths.mean_state_integral.s": sum(durs["paths.mean_state_integral"]),
            "lsmc.solve_bsde_hat.calls": len(durs["lsmc.solve_bsde_hat"]),
            "lsmc.solve_bsde_hat.s": sum(durs["lsmc.solve_bsde_hat"]),
            "lsmc.solve_bsde_hat.ms_p50": 1e3 * statistics.median(durs["lsmc.solve_bsde_hat"]),
            "lsmc.solve_bsde_hat.ms_p90": 1e3 * float(np.percentile(durs["lsmc.solve_bsde_hat"], 90)),
            "lsmc.solve_bsde_hat.self_s": self_s("lsmc.solve_bsde_hat"),
            "lsmc.build_partition.calls": len(durs["lsmc.build_partition"]),
            "lsmc.build_partition.s": sum(durs["lsmc.build_partition"]),
            "lsmc.regress.calls": len(durs["lsmc.regress"]),
            "lsmc.regress.s": sum(durs["lsmc.regress"]),
            "lsmc.cells_occupied_frac": occupied / built,
            "optimizer.solve.calls": len(durs["optimizer.solve"]),
            "optimizer.solve.s": sum(durs["optimizer.solve"]),
            "optimizer.iter_ms_p50": statistics.median(gaps) if gaps else 0.0,
            "optimizer.iter_ms_p90": float(np.percentile(gaps, 90)) if gaps else 0.0,
            "optimizer.gradient.s": sum(durs["optimizer.gradient"]),
            "optimizer.project_update.s": sum(durs["optimizer.project_update"]),
            "optimizer.self_s": self_s("optimizer.solve"),
            "problems.callback_calls": self.callback_calls[index],
            "detode.solve_kernels.s": sum(durs["detode.solve_kernels"]),
            "bench.write_outputs.s": sum(durs["bench.write_outputs"]),
        }

    @staticmethod
    def _bsde_starts(spans) -> dict[int, list[float]]:
        """Start times of the backward passes, grouped by the solve span that made them."""
        starts: dict[int, list[float]] = defaultdict(list)
        for span in spans:
            if span.name == "lsmc.solve_bsde_hat":
                starts[span.parent].append(span.start)
        return starts

    def per_n(self, index: int) -> dict[int, dict[str, float]]:
        """Calibration breakdown of one traced sweep by grid size N."""
        spans = self.sweeps[index]
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        bsde_starts = self._bsde_starts(spans)
        for i, span in enumerate(spans):
            if span.solve is None:
                continue
            n = span.solve[1]
            row = out[n]
            if span.name == "optimizer.solve":
                starts = bsde_starts[i]
                row["iterations"].append(len(starts))
                row["iter_ms"].extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
            elif span.name == "lsmc.solve_bsde_hat":
                row["bsde_ms"].append(1e3 * span.dur)
            elif span.name == "paths.euler_simulate" and span.site == "optimizer":
                row["euler_ms"].append(1e3 * span.dur)
            elif span.name == "optimizer.gradient":
                row["gradient_ms"].append(1e3 * span.dur)
            elif span.name == "paths.gen_brownian":
                row["gen_brownian_s"].append(span.dur)
        return {
            n: {key: statistics.median(vals) for key, vals in row.items() if vals}
            for n, row in sorted(out.items())
        }

    def write(self, path: str, origin: float) -> None:
        """One JSON line per span; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(self.sweeps):
                for i, s in enumerate(spans):
                    fh.write(json.dumps({
                        "sweep": k, "id": i, "name": s.name, "site": s.site,
                        "start": s.start - origin, "end": s.end - origin,
                        "parent": s.parent, "solve": s.solve, "book": s.book,
                    }) + "\n")


class SetupTimer:
    """Bare accumulating timer around the solves' ensemble and kernel set-up."""

    def __init__(self):
        self.total = 0.0

    def _timed(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - t0

        return timed

    def installed(self):
        return patched([
            (optimizer, "gen_brownian", self._timed(optimizer.gen_brownian)),
            (optimizer, "solve_kernels", self._timed(optimizer.solve_kernels)),
        ])
