"""A law's two forms against the per-pattern assembly they replaced.

Before its first message a follower's u1 reads its own vhat: ``Law.start``
keeps the generator and the step operator in a live and a waiting form,
and a step or deriv at tick k takes each output row from the form its
follower is in at k.  The oracle here is the assembly the laws ran before:
one copy of the generator's columns and of the step operator per liveness
pattern first <= k, and one reference to them per tick.  Both must agree to
the bit at every tick, and the law's memory must not grow with the number
of distinct first-delivery ticks.
"""
from unittest import mock

import numpy as np
import pytest

from containsim.control import Law, make_controller, rk4_operator
from containsim.engine import stage_times
from test_control import LAW_CASES, random_gains, random_model


def case_id(case) -> str:
    return "-".join(map(str, case))


class PatternOracle:
    """law's generator, and its step operator without extra outputs, for
    the run of n agents at dt over ticks 0..K, one copy per liveness
    pattern; width is the leader sources' entries per stage."""

    def __init__(self, law, n: int, dt: float, K: int, first: np.ndarray,
                 width: int):
        m, N, nb = law.gains.m, law.N, len(law.names) + 2
        self.m, self.N = m, N
        rows = 2 * n + (nb - 2) * m
        at = dict(p=0, v=n, gamma=n, vL=n + m, u0=rows, u1=rows + m,
                  lead=rows + 2 * m, **{x: 2 * n + i * m
                                        for i, x in enumerate(law.names)},
                  **{x: rows + i * m for i, x in enumerate(law.extra)})
        parts = []
        for o, i, count, scale, M in [("p", "v", n, 1.0, np.eye(N))] \
                + law.terms(n, m):
            (c, d), a = np.nonzero(M), np.arange(count)[:, None]
            parts.append(np.broadcast_arrays((at[o] + a) * N + c, (
                at[i] + a) * N + d, (at["vhat" if i == "u1" else i] + a) * N
                + d, np.reshape(scale, (-1, 1)) * M[c, d], o == "gamma"))
        self.out, self.cols, waiting, self.coef, gamma = (np.concatenate(
            [x.ravel() for x in part]) for part in zip(*parts))
        self.gamma = np.flatnonzero(gamma)
        self.gamma_out = self.out[self.gamma] - n * N
        self.size = (rows + len(law.extra) * m) * N
        agent = np.r_[np.tile(np.arange(n), 2), np.tile(np.arange(m), nb - 1)]
        owner = np.minimum(agent, m)
        # The followers still waiting at each pattern, each tick's pattern.
        ticks = np.unique(first[first <= K])
        waits = [np.r_[first > t, False] for t in np.r_[-1, ticks]]
        pattern = np.searchsorted(ticks, np.arange(K + 1), "right")
        gen = owner[self.out // N]
        by_wait = [np.where(w[gen], waiting, self.cols) for w in waits]
        self.tick_cols = [by_wait[i] for i in pattern]
        if law.extra:
            return
        forms = []
        for cols in (self.cols, waiting):
            out, c, coef = rk4_operator(self.out, cols, self.coef,
                                        agent[:rows].repeat(N),
                                        2 * m * N + width, dt)
            out = np.r_[out, self.size + self.gamma_out]
            forms.append((out, np.r_[c, cols[self.gamma]],
                          np.r_[coef, self.coef[self.gamma]],
                          owner[out // N]))
        (*live, a), (*late, b) = forms
        by_wait = [[np.concatenate((x[k], z[j])) for x, z in zip(live, late)]
                   for k, j in ((~w[a], w[b]) for w in waits)]
        self.tick_steps = [by_wait[i] for i in pattern]

    def deriv(self, k: int, y: np.ndarray, u: np.ndarray):
        prod = np.concatenate((y.ravel(), u)).take(self.tick_cols[k])
        prod *= self.coef
        dy = np.bincount(self.out, prod, self.size).reshape(-1, self.N)
        return dy, np.bincount(self.gamma_out, prod[self.gamma],
                               self.m * self.N).reshape(-1, self.N)

    def step(self, k: int, y: np.ndarray, row: np.ndarray):
        out, cols, coef = self.tick_steps[k]
        x = np.concatenate((y.ravel(), row)).take(cols)
        x *= coef
        z = np.bincount(out, x, y.size + self.m * self.N)
        return z[:y.size].reshape(y.shape), z[y.size:].reshape(-1, self.N)


def started_law(rng, case, m: int, N: int, leaders: int, K: int,
                first: np.ndarray, dt: float = 0.01):
    """(law, n): case's law started on a run of m followers and leaders
    leaders over ticks 0..K, random gains and leader accelerations."""
    variant, psi_mode, use_velocity = case
    model = random_model(rng, variant, N, "damped") \
        if variant in ("nonlinear_vs", "oscillator_full",
                       "oscillator_output") else None
    law = make_controller(variant, random_gains(rng, m), N, model=model,
                          psi_mode=psi_mode, v_d=rng.normal(size=N),
                          use_velocity=use_velocity)
    free = variant.startswith("oscillator")     # oscillator leaders
    law.start(m + leaders, dt, stage_times(K, dt), first,
              rng.normal(size=(K + 1, 3, 0 if free else leaders, N)))
    return law, m + leaders


@pytest.mark.parametrize("case", LAW_CASES, ids=case_id)
@pytest.mark.parametrize("seed", range(3))
def test_each_tick_equals_its_pattern(case, seed):
    # Each follower's first tick drawn on its own: distinct ticks, and one
    # or more followers with no message by K (first K + 1).
    rng = np.random.default_rng([seed, LAW_CASES.index(case)])
    m, N, leaders, K = int(rng.integers(2, 7)), int(rng.integers(1, 4)), \
        int(rng.integers(1, 4)), 12
    first = rng.choice(K + 1, size=m, replace=False)
    first[rng.random(m) < 0.3] = K + 1
    first[rng.integers(m)] = K + 1
    law, n = started_law(rng, case, m, N, leaders, K, first)
    oracle = PatternOracle(law, n, law.dt, K, first, law.leaders.shape[2])
    width = 2 * m * N + law.leaders.shape[2]
    for k in range(K + 1):
        y = rng.normal(size=(2 * n + len(law.names) * m, N))
        row = rng.normal(size=3 * width)
        if not law.extra:
            for got, want in zip(law.step(k, y, row), oracle.step(k, y, row)):
                assert np.array_equal(got, want)
        for got, want in zip(Law.deriv(law, k, y, row[:width]),
                             oracle.deriv(k, y, row[:width])):
            assert np.array_equal(got, want)
        if law.extra:       # nonlinear_vs: its terms over either generator
            want = law.deriv(k, y, row[width:2 * width])
            with mock.patch.object(Law, "deriv", lambda self, k, y, u:
                                   oracle.deriv(k, y, u)):
                got = law.deriv(k, y, row[width:2 * width])
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def retained_bytes(law) -> int:
    """The bytes of the distinct arrays law holds, in lists or tuples too."""
    seen = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            seen[id(x)] = x.nbytes
        elif isinstance(x, (list, tuple)):
            for z in x:
                walk(z)
    walk(list(vars(law).values()))
    return sum(seen.values())


@pytest.mark.parametrize("case", LAW_CASES, ids=case_id)
def test_memory_does_not_grow_with_first_delivery_ticks(case):
    m, K = 6, 12
    sizes = [retained_bytes(started_law(np.random.default_rng(5), case, m, 2,
                                        3, K, first)[0])
             for first in (np.zeros(m, int), np.arange(1, m + 1) * 2)]
    assert sizes[0] == sizes[1]
