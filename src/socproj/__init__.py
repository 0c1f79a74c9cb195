"""Gradient projection solver for stochastic optimal control problems whose
mean state must satisfy an expected integral constraint, with a least-squares
Monte Carlo adjoint solver and a convergence benchmark harness."""

__version__ = "0.1.0"

from .bench import (
    RunReport,
    RunRow,
    SweepConfig,
    build_problem,
    parse_config,
    rate,
    run_sweep,
)
from .detode import (
    KernelSolution,
    solve_kernels,
    solve_psi,
    solve_varphi_tilde,
)
from .gridfn import (
    StepFunction,
    TimeGrid,
    constant_control,
    l2_dist,
    linf_dist,
    nodal_sample,
    trapezoid,
)
from .lsmc import (
    HYPERCUBE,
    VORONOI,
    BasisSpec,
    BsdeSolution,
    Partition,
    PartitionCache,
    build_partition,
    regress,
    solve_bsde_hat,
)
from .optimizer import (
    IterationState,
    SolveConfig,
    SolveResult,
    compute_multiplier,
    gradient,
    project_update,
    solve,
)
from .paths import (
    BrownianEnsemble,
    PathEnsemble,
    SimulationError,
    derive_seed,
    euler_simulate,
    gen_brownian,
    mean_state_integral,
)
from .problems import (
    EXAMPLE2_DELTA,
    EXAMPLE2_MU_STAR,
    EXAMPLE3_DELTA_ACTIVE,
    ZERO,
    CostDerivatives,
    Diffusion,
    ExactSolution,
    GridProblem,
    LinearDrift,
    ProblemSpec,
    VectorProblem,
    discretize,
    example1,
    example2,
    example3,
    vanishes,
)

__all__ = [
    # bench
    "RunReport",
    "RunRow",
    "SweepConfig",
    "build_problem",
    "parse_config",
    "rate",
    "run_sweep",
    # detode
    "KernelSolution",
    "solve_kernels",
    "solve_psi",
    "solve_varphi_tilde",
    # gridfn
    "StepFunction",
    "TimeGrid",
    "constant_control",
    "l2_dist",
    "linf_dist",
    "nodal_sample",
    "trapezoid",
    # lsmc
    "HYPERCUBE",
    "VORONOI",
    "BasisSpec",
    "BsdeSolution",
    "Partition",
    "PartitionCache",
    "build_partition",
    "regress",
    "solve_bsde_hat",
    # optimizer
    "IterationState",
    "SolveConfig",
    "SolveResult",
    "compute_multiplier",
    "gradient",
    "project_update",
    "solve",
    # paths
    "BrownianEnsemble",
    "PathEnsemble",
    "SimulationError",
    "derive_seed",
    "euler_simulate",
    "gen_brownian",
    "mean_state_integral",
    # problems
    "EXAMPLE2_DELTA",
    "EXAMPLE2_MU_STAR",
    "EXAMPLE3_DELTA_ACTIVE",
    "ZERO",
    "CostDerivatives",
    "Diffusion",
    "ExactSolution",
    "GridProblem",
    "LinearDrift",
    "ProblemSpec",
    "VectorProblem",
    "discretize",
    "example1",
    "example2",
    "example3",
    "vanishes",
]
