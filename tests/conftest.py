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


def mailbox_oracle(eng) -> np.ndarray:
    """The engine's mailbox updated tick by tick, (K + 1, E): at each tick
    the deliveries due raise each edge's entry to the freshest seq."""
    first = np.searchsorted(eng.tick, np.arange(eng.K + 2))
    box = np.full(len(eng.edges), -1)
    rows = []
    for k in range(eng.K + 1):
        due = slice(first[k], first[k + 1])
        np.maximum.at(box, eng.edge[due], eng.seq[due])
        rows.append(box.copy())
    return np.array(rows)


def follower_rhs(model, p: np.ndarray, v: np.ndarray,
                 gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dp, dv) under input gamma; p, v, gamma hold one agent per row: the
    oracle for dynamics.plant, one product per matrix and a dispatch on
    the model kind at every call."""
    if gamma.shape != v.shape:
        raise ValueError("gamma dimension mismatch")
    if model.kind == "double_integrator":
        return v, gamma
    if model.kind == "nonlinear":
        return v, model.drift_fns["f"](p, v) + gamma
    return v, p @ model.S1.T + v @ model.S2.T + gamma


def view_spans_oracle(used: np.ndarray) -> tuple[list, list]:
    """The ticks where a view of the mailbox history used is built (0 and
    each change of its row) and the last half tick each view serves: the
    view of ticks k0..k1 serves 2k, 2k + 1 and 2k + 2 of each tick k < K,
    and 2K if it holds at K."""
    K = len(used) - 1
    built = [k for k in range(K + 1)
             if k == 0 or not np.array_equal(used[k], used[k - 1])]
    served = [max([2 * k + 2 for k in range(k0, min(k1, K))]
                  + [2 * K] * (k1 > K))
              for k0, k1 in zip(built, built[1:] + [K + 1])]
    return built, served


def one_edge_topology() -> DirectedTopology:
    """Leader 1 -> follower 0, with unit weight."""
    return DirectedTopology(n=2, m=1, weights=[[0.0, 1.0], [0.0, 0.0]])


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
