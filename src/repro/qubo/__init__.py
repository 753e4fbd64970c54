"""QUBO intermediate representation and Ising conversion."""

from .ising import IsingModel, bits_to_spins, ising_to_qubo, qubo_to_ising, spins_to_bits
from .matrix import (
    EXHAUSTIVE_SEARCH_LIMIT,
    HAVE_SCIPY,
    coupling_density,
    enumerate_assignments,
    from_dense,
    from_sparse,
    preferred_representation,
    sparse_energies,
    to_dense,
    to_sparse,
)
from .model import QUBO, qubo_fingerprint

__all__ = [
    "EXHAUSTIVE_SEARCH_LIMIT",
    "HAVE_SCIPY",
    "IsingModel",
    "QUBO",
    "bits_to_spins",
    "coupling_density",
    "enumerate_assignments",
    "from_dense",
    "from_sparse",
    "ising_to_qubo",
    "preferred_representation",
    "qubo_fingerprint",
    "qubo_to_ising",
    "sparse_energies",
    "spins_to_bits",
    "to_dense",
    "to_sparse",
]
