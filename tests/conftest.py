import dataclasses
import importlib.resources as ir
import json

import numpy as np
import pytest

from containsim import config
from containsim.comm import TICK_TOL, LinkSchedule, floor_ticks
from containsim.control import rk4_step
from containsim.topology import DirectedTopology


SCENARIOS = ("benchmark_fullstate", "benchmark_outputfb", "benchmark_nonlinear",
             "oscillator_harmonic", "cascade_estimates")


def load_scenario_doc(name: str) -> dict:
    text = ir.files("containsim").joinpath(f"scenarios/{name}.json").read_text()
    return json.loads(text)


def seeded(obj, seed: int):
    """A Scenario or CascadeConfig with its comm seed set to seed, the one
    input that draws its link schedules."""
    return dataclasses.replace(obj, comm=dataclasses.replace(obj.comm,
                                                             seed=seed))


def link_schedule(ticks, T=0.1, dt=0.01) -> LinkSchedule:
    """A schedule from per-seq delays in ticks of dt, None for a drop."""
    delivered = np.array([d is not None for d in ticks], dtype=bool)
    delay = np.array([d or 0 for d in ticks], dtype=int)
    return LinkSchedule(T, dt, delay, delivered,
                        np.zeros(len(delay), dtype=bool))


def to_ticks_oracle(seconds, dt: float, what: str,
                    error=ValueError) -> np.ndarray:
    """seconds / dt as an int array of whole ticks, through NumPy; raises
    error unless dt divides them all."""
    x = np.asarray(seconds, dtype=float) / dt
    k = np.round(x)
    if not (np.abs(x - k) <= TICK_TOL).all():
        raise error(f"dt must divide {what}")
    return k.astype(int)


def repair_blackouts_chain_oracle(sched: LinkSchedule, T_star: float,
                                  delay_max: float) -> None:
    """The repair pass as a greedy Assumption-2 chain walk, converting T,
    T_star and delay_max to ticks itself: from each deadline's last send
    it scans down for a delivered message on time, and where none is, it
    forces the next message through, its delay capped at delay_max and at
    the deadline."""
    spT = int(to_ticks_oracle(sched.T, sched.dt, "the sampling period T"))
    t_star = floor_ticks(T_star, sched.dt)
    d_max = floor_ticks(delay_max, sched.dt)
    delay, ok = sched.delay.tolist(), sched.delivered.tolist()
    chain, deadline = -1, t_star
    while chain < len(delay) - 1:
        s = next((k for k in range(min(len(delay) - 1, deadline // spT),
                                   chain, -1)
                  if ok[k] and k * spT + delay[k] <= deadline), None)
        if s is None:
            s = chain + 1
            sched.delay[s] = min(d_max, deadline - s * spT)
            sched.delivered[s] = sched.forced[s] = True
        chain, deadline = s, s * spT + t_star


def generate_schedule_oracle(edge, cfg, t_end: float, dt: float,
                             repair=repair_blackouts_chain_oracle
                             ) -> LinkSchedule:
    """comm.generate_schedule with two draws from the edge's stream, drops
    by random(n) and then delays by uniform(0.0, delay_max, n), and the
    period converted to ticks through NumPy; repair(sched, T_star,
    delay_max) then repairs the schedule in place."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & 0xFFFFFFFFFFFFFFFF, edge[0], edge[1]]))
    n_sends = floor_ticks(t_end, dt) // int(to_ticks_oracle(
        cfg.T, dt, "the sampling period T")) + 1
    delivered = rng.random(n_sends) >= cfg.drop_prob
    ticks = np.round(rng.uniform(0.0, cfg.delay_max, n_sends) / dt)
    sched = LinkSchedule(cfg.T, dt,
                         np.where(delivered, ticks.astype(int), 0),
                         delivered, np.zeros(n_sends, dtype=bool))
    repair(sched, cfg.T_star, cfg.delay_max)
    return sched


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
    plant of law_oracle.closed_loop_oracle, one product per matrix and a
    dispatch on the model kind at every call."""
    if gamma.shape != v.shape:
        raise ValueError("gamma dimension mismatch")
    if model.kind == "double_integrator":
        return v, gamma
    if model.kind == "nonlinear":
        return v, model.drift_fns["f"](p, v) + gamma
    return v, p @ model.S1.T + v @ model.S2.T + gamma


def rk4(rhs, h: float):
    """step(k, y, u) -> (y at tick k + 1, out at tick k): RK4 over rhs((k,
    s), y, u) -> (dy, out) at stage s of tick k, engine.stage_times(K,
    h)[k, s], u held."""
    def step(k: int, y: np.ndarray, u):
        dy, out = rhs((k, 0), y, u)
        return rk4_step(lambda s, z, u: rhs((k, s), z, u), h, y, u,
                        dy), out
    return step


def run_on_views(eng, y: np.ndarray, rhs, watch=()):
    """eng.run with classical RK4 over rhs(row, y, view) at every tick, on
    the view of the tick built from the states the steps were given (the
    engine's blocks are the ticks' offsets)."""
    states, step = np.empty((eng.K + 1,) + y.shape), rk4(rhs, eng.dt)

    def on_view(k, y, _):
        states[k] = y
        return step(k, y, eng.view(k, k + 1, states))
    return eng.run(y, on_view, watch, lambda lo, view: range(view.m // eng.m))


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
