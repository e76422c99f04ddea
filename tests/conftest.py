import importlib.resources as ir
import json

import numpy as np
import pytest

from containsim import config
from containsim.comm import LinkSchedule
from containsim.topology import DirectedTopology


SCENARIOS = ("benchmark_fullstate", "benchmark_outputfb", "benchmark_nonlinear",
             "oscillator_harmonic", "cascade_estimates")


def load_scenario_doc(name: str) -> dict:
    text = ir.files("containsim").joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


def link_schedule(ticks, T=0.1, dt=0.01) -> LinkSchedule:
    """A schedule from per-seq delays in ticks of dt, None for a drop."""
    delivered = np.array([d is not None for d in ticks], dtype=bool)
    delay = np.array([d or 0 for d in ticks], dtype=int)
    return LinkSchedule(T, dt, delay, delivered,
                        np.zeros(len(delay), dtype=bool))


# The ten-agent benchmark graph: six followers, four leaders, unit weights.
BENCH_EDGES = [
    (3, 1), (7, 1),
    (3, 2), (8, 2),
    (1, 3), (4, 3), (8, 3), (9, 3),
    (3, 4), (5, 4), (6, 4),
    (6, 5), (8, 5), (9, 5),
    (5, 6), (10, 6),
]


def bench_topology() -> DirectedTopology:
    w = np.zeros((10, 10))
    for src, dst in BENCH_EDGES:
        w[dst - 1, src - 1] = 1.0
    return DirectedTopology(n=10, m=6, weights=w)


def random_reachable_topology(rng: np.random.Generator,
                              n_max: int = 12) -> DirectedTopology:
    """Random digraph guaranteed to satisfy the leader-reachability condition."""
    while True:
        n = int(rng.integers(4, n_max + 1))
        m = int(rng.integers(2, n - 1))
        w = np.zeros((n, n))
        for i in range(m):
            srcs = rng.choice([j for j in range(n) if j != i],
                              size=int(rng.integers(1, 4)), replace=False)
            for j in srcs:
                w[i, j] = float(rng.uniform(0.5, 2.0))
        topo = DirectedTopology(n=n, m=m, weights=w)
        from containsim.topology import validate_assumption1
        if validate_assumption1(topo)[0]:
            return topo


@pytest.fixture
def bench_topo():
    return bench_topology()


@pytest.fixture
def bench_scenario():
    return config.build_scenario(load_scenario_doc("benchmark_fullstate"))
