"""Behaviour fingerprint of three tiny sweeps, pinned.

The fingerprint is a sha256 over every report cell except ``wall_time_s``,
the digest the benchmark compares between commits.  A change that must leave
the numbers alone (a storage layout, a faster reduction) has to leave these
digests alone too; a change that moves them on purpose updates the pins and
says which cells moved and why.
"""

import dataclasses
import hashlib
import json

import pytest

from socproj.bench import SweepConfig, run_sweep
from socproj.lsmc import HYPERCUBE, VORONOI

SWEEPS = {
    "example1-d2-voronoi": (
        SweepConfig(
            problem="example1",
            N_list=[4, 8, 12],
            d=2,
            mu_star=0.3,
            L=1100,
            rho=0.5,
            eps0=5e-4,
            seed=11,
            basis_kind=VORONOI,
            basis_K=8,
        ),
        "152f44a61c3a33492d2dc04ab2fe2dc9c43aa865c99990c2a45bdc3b89ed6cfa",
    ),
    "example2-voronoi": (
        SweepConfig(
            problem="example2",
            N_list=[4, 8, 16],
            L=700,
            rho=0.1,
            eps0=1e-3,
            seed=12,
            basis_kind=VORONOI,
            basis_K=8,
        ),
        "3322718ee7e671e9572ecd8380834b480c4880a414d03ee1d65dae3179e0c28d",
    ),
    "example3-hypercube-self-convergence": (
        SweepConfig(
            problem="example3",
            N_list=[4, 8, 16],
            delta=1.34150,
            mu_star=1.0,
            L=600,
            rho=0.1,
            eps0=1e-3,
            seed=13,
            basis_kind=HYPERCUBE,
            basis_K=8,
            self_convergence=True,
        ),
        "f6f7e83ff82b09266a966ae5d50c451bdafdcf61ed9925092f0af182623bca44",
    ),
}


def fingerprint(reports):
    cells = [
        {
            "component": report.component,
            "rows": [
                {k: v for k, v in dataclasses.asdict(row).items() if k != "wall_time_s"}
                for row in report.rows
            ],
        }
        for report in reports
    ]
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_fingerprint_is_pinned(name):
    cfg, pinned = SWEEPS[name]
    reports = run_sweep(cfg, write=False)
    rows = [row for report in reports for row in report.rows]
    assert rows and all(row.failure is None for row in rows)
    assert fingerprint(reports) == pinned
