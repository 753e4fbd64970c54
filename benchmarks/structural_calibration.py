#!/usr/bin/env python3
"""Compare the circuit device's exact and structural execution models.

Takes every Figures 8–10 study point (``fig8_10.default_points``) whose
QUBO fits the exact-simulation limit (≤ 16 variables).  For each seed it
runs every point twice from the same stream: once on the exact noisy
QAOA path, and once on the structural surrogate (a second device whose
exact-simulation limit is 0).  It prints both Definition 8 labels per
run, then the label counts of each model and how many runs got the same
label from both.  The stream of point ``i`` at seed ``s`` is
``SeedSequence(s).spawn(1)[0].spawn(n_points)[i]``, the first-pass
stream of the pipebench qaoa-sweep workload.

Run:  PYTHONPATH=src python benchmarks/structural_calibration.py [--seeds 0 1 2 3 4 5]
"""

import argparse
from collections import Counter

import numpy as np

from repro.circuit import CircuitDevice, CircuitDeviceProfile
from repro.experiments import fig8_10


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4, 5])
    args = parser.parse_args()

    devices = {
        "exact": CircuitDevice(CircuitDeviceProfile.brooklyn()),
        "structural": CircuitDevice(CircuitDeviceProfile.brooklyn()),
    }
    devices["structural"].profile.exact_simulation_limit = 0
    limit = devices["exact"].profile.exact_simulation_limit

    points = fig8_10.default_points()
    simulable = [
        i for i, point in enumerate(points)
        if point.instance.build_env().to_qubo().qubo.num_variables <= limit
    ]
    tallies = {name: Counter() for name in devices}
    same = 0
    for seed in args.seeds:
        streams = np.random.SeedSequence(seed).spawn(1)[0].spawn(len(points))
        for i in simulable:
            labels = {
                name: fig8_10.run_point(device, points[i], np.random.default_rng(streams[i])).quality
                for name, device in devices.items()
            }
            for name, label in labels.items():
                tallies[name][label] += 1
            same += labels["exact"] == labels["structural"]
            print(f"seed {seed}  {points[i].problem} {points[i].label}: "
                  f"exact {labels['exact']}, structural {labels['structural']}")

    runs = len(args.seeds) * len(simulable)
    print(f"\n{len(simulable)} points with <= {limit} variables x {len(args.seeds)} seeds = {runs} runs")
    for name, tally in tallies.items():
        print(f"{name:>10}: " + ", ".join(
            f"{tally[q]} {q}" for q in ("optimal", "suboptimal", "incorrect")))
    print(f"same label in {same} of {runs} runs")


if __name__ == "__main__":
    main()
