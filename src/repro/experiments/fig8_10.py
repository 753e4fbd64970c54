"""Figures 8–10: qubits used, circuit depth, and constraints (IBM Q).

One driver covers all three figures, since they plot different
projections of the same per-instance record:

* Figure 8 — qubits used per problem, optimal vs. suboptimal markers;
* Figure 9 — transpiled circuit depth per problem, same markers;
* Figure 10 — number of NchooseK constraints vs. circuit depth.

Instances whose compiled QUBO exceeds the device's 65 qubits are skipped,
exactly as the paper's "no NchooseK problem with more than 65 variables
can be mapped onto ibmq_brooklyn."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.device import CircuitDevice, CircuitDeviceProfile
from .ground_truth import max_soft_satisfiable
from .records import CircuitMetrics
from .scaling import StudyPoint, cover_study, sat_study, vertex_study


@dataclass
class Fig8Config:
    """Knobs for the IBM-profile run."""

    seed: int = 2022
    noiseless: bool = False
    include_edge_study: bool = True


def run_point(
    device: CircuitDevice,
    point: StudyPoint,
    rng: np.random.Generator,
) -> CircuitMetrics | None:
    """One QAOA execution for one instance; None if it does not fit."""
    env = point.instance.build_env()
    program = env.to_qubo()
    if program.qubo.num_variables > device.profile.num_qubits:
        return None
    truth = max_soft_satisfiable(point.instance, env)
    samples = device.sample(env, rng=rng, program=program)
    quality = samples.best.quality(truth)
    return CircuitMetrics(
        problem=point.problem,
        label=point.label,
        logical_variables=samples.metadata["logical_qubits"],
        qubits_used=samples.metadata["qubits_used"],
        depth=samples.metadata["depth"],
        constraints=env.num_constraints,
        quality=quality.value,
    )


def default_points(include_edge_study: bool = True) -> list[StudyPoint]:
    """The study points :func:`run` uses when given none."""
    # Smaller vertex-study sizes: the circuit device holds 65 qubits.
    points = (
        vertex_study(triangles=(2, 3, 4, 5, 7))
        + cover_study(sizes=((4, 4), (6, 6), (8, 8), (10, 10)))
        + sat_study(sizes=((4, 6), (6, 10), (8, 14)))
    )
    if include_edge_study:
        from .scaling import edge_study

        points += edge_study(edges=(18, 24, 31))
    return points


def run(
    points: list[StudyPoint] | None = None,
    config: Fig8Config | None = None,
    device: CircuitDevice | None = None,
) -> list[CircuitMetrics]:
    """The Figure 8/9/10 record set."""
    config = config or Fig8Config()
    rng = np.random.default_rng(config.seed)
    if device is None:
        device = CircuitDevice(CircuitDeviceProfile.brooklyn(noiseless=config.noiseless))
    if points is None:
        points = default_points(config.include_edge_study)
    metrics = []
    for point in points:
        m = run_point(device, point, rng)
        if m is not None:
            metrics.append(m)
    return metrics
