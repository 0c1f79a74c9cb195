"""Gradient projection solver for stochastic optimal control problems whose
mean state must satisfy an expected integral constraint, with a least-squares
Monte Carlo adjoint solver and a convergence benchmark harness.

Each module's ``__all__`` is its public surface; the package re-exports them
all, in this order."""

__version__ = "0.1.0"  # above the imports: ``bench`` reads it

from .bench import *
from .gridfn import *
from .lsmc import *
from .optimizer import *
from .paths import *
from .problems import *

__all__ = [
    *bench.__all__,
    *gridfn.__all__,
    *lsmc.__all__,
    *optimizer.__all__,
    *paths.__all__,
    *problems.__all__,
]
