"""The sampled-data engine as it runs: staleness bound and the tick grid."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import analysis, config, sim
from containsim.analysis import CascadeError
from containsim.comm import CommConfig, to_ticks
from containsim.control import NeighborView
from containsim.engine import Engine, rk4_step
from containsim.sim import ScenarioError
from conftest import link_schedule, load_scenario_doc


def rk4_step_oracle(rhs, t: float, h: float, y: list, u, k1: list) -> list:
    """One classical RK4 step of dy/dt = rhs(t, y, u)[0] with u held fixed.

    y is a list of state arrays and k1 = rhs(t, y, u)[0] is passed in, since
    the caller already evaluated it to record the step-start outputs.
    """
    k2, _ = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)], u)
    k3, _ = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)], u)
    k4, _ = rhs(t + h, [a + h * b for a, b in zip(y, k3)], u)
    return [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(1, 5), min_size=1,
                                       max_size=5),
       st.integers(1, 3), st.one_of(st.just(0.025), st.floats(1e-4, 1.0)),
       st.integers(0, 2400))
def test_flat_step_equals_the_step_over_blocks(seed, rows, N, h, k):
    # The same state as one (rows, N) array and as a list of row blocks:
    # the flat step equals the list-form step to the bit, and both
    # evaluate the right-hand side at the same stage times.  On the
    # dt = 0.025 grid, k * dt + dt is not always (k + 1) * dt.
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(sum(rows), N))
    u = rng.normal(size=(len(y), len(y)))
    t = k * h
    seen = {"flat": [], "blocks": []}

    def rhs(t, y, u, who="flat"):
        seen[who].append(t)
        return u @ y + np.sin(t + y), None

    def rhs_blocks(t, ys, u):
        dy, _ = rhs(t, np.concatenate(ys), u, "blocks")
        return np.split(dy, np.cumsum(rows)[:-1]), None

    got = rk4_step(rhs, t, h, y, u, rhs(t, y, u)[0])
    blocks = np.split(y, np.cumsum(rows)[:-1])
    want = rk4_step_oracle(rhs_blocks, t, h, blocks, u,
                           rhs_blocks(t, blocks, u)[0])
    assert np.array_equal(got, np.concatenate(want))
    assert seen["flat"] == seen["blocks"]


@pytest.mark.parametrize("name", ["benchmark_fullstate",
                                  "oscillator_harmonic"])
@pytest.mark.parametrize("seed, drop_prob", [(0, 0.2), (3, 0.6), (7, 0.9)])
def test_used_message_never_older_than_blackout(name, seed, drop_prob):
    # From t = T* on, every edge holds a message, and the one in use was
    # sent at most T* ago, counted in whole ticks.
    doc = load_scenario_doc(name)
    doc["sim"]["t_end_seconds"] = 6.0
    doc["comm"]["drop_prob"] = drop_prob
    scen = config.build_scenario(doc)
    assert scen.comm.delay_max > 0
    trace = sim.run(scen, seed=seed)
    steps_per_T = int(to_ticks(scen.comm.T, scen.dt, "T"))
    t_star = int(to_ticks(scen.comm.T_star, scen.dt, "T*"))
    used = trace.used_seq[t_star:]
    ticks = np.arange(t_star, trace.used_seq.shape[0])
    assert np.all(used >= 0)
    assert np.all(ticks[:, None] - used * steps_per_T <= t_star)


_SHORT_FULLSTATE = load_scenario_doc("benchmark_fullstate")
_SHORT_FULLSTATE["sim"]["t_end_seconds"] = 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 30), st.integers(0, 120), st.floats(0.0, 0.95),
       st.floats(0.0, 0.99), st.integers(0, 2**31))
def test_staleness_bound_holds_for_any_comm_config(spT, extra, drop_prob,
                                                    delay_frac, seed):
    # Sampling period spT ticks, blackout bound T* = spT + extra ticks, and
    # delays up to just under T*: from t = T* on, every edge holds a message
    # sent at most T* ago, counted in whole ticks.
    scen = config.build_scenario(_SHORT_FULLSTATE)
    dt = scen.dt
    t_star = spT + extra
    comm = CommConfig(T=spT * dt, T_star=t_star * dt, drop_prob=drop_prob,
                      delay_max=delay_frac * t_star * dt, seed=seed)
    trace = sim.run(dataclasses.replace(scen, comm=comm))
    used = trace.used_seq[t_star:]
    ticks = np.arange(t_star, trace.used_seq.shape[0])
    assert np.all(used >= 0)
    assert np.all(ticks[:, None] - used * spT <= t_star)


def _shift_first_delivery(schedules, parts):
    # The same messages on a tick grid parts times finer, with the first
    # delivery of the first edge one fine tick later.
    for sched in schedules.values():
        sched.dt /= parts
        sched.delay *= parts
    sched = schedules[min(schedules)]
    sched.delay[np.argmax(sched.delivered)] += 1


def test_injected_delay_off_the_tick_grid_rejected():
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 1.0
    scen = config.build_scenario(doc)
    schedules = sim.build_schedules(scen, seed=0)
    _shift_first_delivery(schedules, 2)
    with pytest.raises(ScenarioError, match="delay"):
        sim.run(scen, schedules=schedules)
    # The same delay is a whole number of ticks of the halved step.
    sim.run(dataclasses.replace(scen, dt=scen.dt / 2), schedules=schedules)


def test_cascade_rejects_delay_off_the_tick_grid():
    doc = load_scenario_doc("cascade_estimates")
    doc["sim"]["t_end_seconds"] = 2.0
    cas = config.build_cascade(doc)
    schedules = {edge: analysis.generate_schedule(edge, cas.comm, cas.t_end,
                                                  cas.dt)
                 for edge in cas.topo.edges()}
    _shift_first_delivery(schedules, 3)
    with pytest.raises(CascadeError, match="delay"):
        analysis.simulate_cascade(cas, schedules=schedules)


@pytest.mark.parametrize("send_shift, delay, match", [
    (0.0, 0.005, "delay"),          # half a tick late
    (0.1, 0.0, "seq\\*T"),          # sent one period after sample seq
    (0.0, -0.05, "delays >= 0"),    # arrives before it is sent
])
def test_engine_rejects_messages_off_the_schedule(send_shift, delay, match):
    # seq 0 sent at 0 with no delay, seq 1 sent at 0.1 + send_shift with
    # the given delay, on a tick of 0.005 s.
    sched = link_schedule([0, round(delay / 0.005)], T=0.1 + send_shift,
                          dt=0.005)
    with pytest.raises(ValueError, match=match):
        Engine([((1, 0), 1.0, sched)],
               T=0.1, dt=0.01, t_end=1.0, fallback=np.zeros((1, 1)))


@pytest.mark.parametrize("order", [[(2, 0), (1, 0)], [(1, 0), (1, 0)]],
                         ids=["out_of_order", "repeated"])
def test_engine_rejects_links_out_of_edge_order(order):
    links = [(edge, 1.0, link_schedule([])) for edge in order]
    with pytest.raises(ValueError, match="strictly increasing edge order"):
        Engine(links, T=0.1, dt=0.01, t_end=1.0, fallback=np.zeros((1, 1)))


def test_view_built_only_on_ticks_with_arrivals(monkeypatch):
    # A tick with no arrivals leaves the mailbox, and so the view, as it
    # was: views are built at tick 0 and at each tick something arrives.
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 3.0
    scen = config.build_scenario(doc)
    built = []
    init = NeighborView.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NeighborView, "__init__", counting)
    trace = sim.run(scen, seed=0)
    arrivals = {0} | {int(to_ticks(a, scen.dt, "arrival"))
                      for *_, a in trace.audit}
    assert len(built) == len(arrivals) < len(trace.times)
