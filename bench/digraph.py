"""Seeded synthetic containment scenario: 90 followers, 10 leaders.

The leaders sit on a circle and move with one common constant velocity.
Followers start at random points of the square around that circle, so
some start outside the leader hull. Each follower has 3 or 4 in-edges
(350 edges in all), drawn from the leaders and the other followers. Draws
repeat until every follower is reachable from a leader, as checked by
``topology.validate_assumption1``.

The result is a plain config document, so the program under test only
receives generated inputs through ``config.build_scenario``.
"""
from __future__ import annotations

import numpy as np

from containsim.config import build_topology
from containsim.topology import validate_assumption1

N_FOLLOWERS = 90
N_LEADERS = 10
N_FOUR_IN = 80            # followers with 4 in-edges; the rest have 3
LEADER_RADIUS = 5.0
T_END_SECONDS = 1.0       # 100 steps of 0.01 s
MAX_DRAWS = 100


def make_doc(seed: int) -> dict:
    """Config document for the synthetic digraph drawn from ``seed``."""
    rng = np.random.default_rng([seed, 100])
    n = N_FOLLOWERS + N_LEADERS
    for _ in range(MAX_DRAWS):
        edges = []
        for i in range(N_FOLLOWERS):
            k = 4 if i < N_FOUR_IN else 3
            others = [j for j in range(n) if j != i]
            for j in rng.choice(others, size=k, replace=False):
                edges.append([int(j) + 1, i + 1,
                              round(float(rng.uniform(0.5, 2.0)), 6)])
        doc = _document(rng, edges, seed)
        if validate_assumption1(build_topology(doc))[0]:
            return doc
    raise RuntimeError(f"no leader-reachable digraph in {MAX_DRAWS} draws")


def _document(rng: np.random.Generator, edges: list, seed: int) -> dict:
    angles = 2 * np.pi * np.arange(N_LEADERS) / N_LEADERS
    leaders = LEADER_RADIUS * np.stack([np.cos(angles), np.sin(angles)], 1)
    followers = rng.uniform(-1.2 * LEADER_RADIUS, 1.2 * LEADER_RADIUS,
                            (N_FOLLOWERS, 2))
    p0 = np.round(np.vstack([followers, leaders]), 6)
    return {
        "label": f"digraph_n100_seed{seed}",
        "topology": {"n": N_FOLLOWERS + N_LEADERS, "m": N_FOLLOWERS,
                     "edges": edges},
        "agents": {
            "N": 2,
            "model": {"kind": "double_integrator"},
            "initial": {"p": p0.tolist(), "v": "auto"},
            "leaders": {"kind": "constant_velocity", "v_d": [0.5, 0.2]},
        },
        "controllers": {"variant": "full_state", "psi_mode": "static",
                        "gains": {"k_p": 4.0, "k_d": 4.0, "L_p": 4.0}},
        "comm": {"T_seconds": 0.1, "T_star_seconds": 0.5, "drop_prob": 0.2,
                 "delay_max_seconds": 0.3, "seed": int(seed)},
        "sim": {"dt_seconds": 0.01, "t_end_seconds": T_END_SECONDS},
    }
