"""Circuit-model substrate: gates, simulator, transpiler, QAOA, device."""

from .circuit import Circuit
from .coupling import brooklyn_coupling_map, full_coupling, heavy_hex_coupling, linear_coupling
from .device import CircuitDevice, CircuitDeviceProfile
from .gates import BASIS_GATES, Gate, decompose_to_basis, gate_matrix
from .noise import CircuitNoiseModel, NoiselessCircuitModel
from .mixers import TransverseFieldMixer, XYRingMixer, get_mixer
from .qaoa import QAOA, QAOAResult, cost_diagonal, qaoa_circuit, qaoa_probabilities
from .statevector import MAX_SIMULATED_QUBITS, StatevectorSimulator
from .timing import CircuitTimingModel
from .transpiler import Transpiler, TranspileResult

__all__ = [
    "BASIS_GATES",
    "Circuit",
    "CircuitDevice",
    "CircuitDeviceProfile",
    "CircuitNoiseModel",
    "CircuitTimingModel",
    "Gate",
    "MAX_SIMULATED_QUBITS",
    "NoiselessCircuitModel",
    "QAOA",
    "QAOAResult",
    "StatevectorSimulator",
    "TranspileResult",
    "TransverseFieldMixer",
    "Transpiler",
    "brooklyn_coupling_map",
    "cost_diagonal",
    "decompose_to_basis",
    "full_coupling",
    "gate_matrix",
    "heavy_hex_coupling",
    "linear_coupling",
    "qaoa_circuit",
    "qaoa_probabilities",
    "XYRingMixer",
    "get_mixer",
]
