"""Classical exact solvers (the paper's Z3 back end and ground truth)."""

from .nck_solver import ExactNckSolver
from .qubo_solver import EXHAUSTIVE_LIMIT, ExactQUBOSolver, greedy_descent

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "ExactNckSolver",
    "ExactQUBOSolver",
    "greedy_descent",
]
