"""The sampled-data engine as it runs: the union layout, the mailbox
history, the staleness bound and the tick grid."""
import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import analysis, config, sim
from containsim.analysis import CascadeError
from containsim.comm import CommConfig, floor_ticks, generate_schedule, \
    to_ticks
from containsim.control import NeighborView, rk4_step
from containsim.engine import DIVERGENCE_LIMIT, DivergenceError, Engine
from containsim.sim import ScenarioError
from containsim.topology import union_rows
from conftest import SCENARIOS, bench_topology, link_schedule, \
    load_scenario_doc, mailbox_oracle, one_edge_topology, run_on_views, \
    seeded


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
    # the flat step, calling rhs at its stages 1 and 2 (midpoint and end),
    # equals the list-form step that computes t + h / 2 and t + h to the
    # bit, and
    # both evaluate the right-hand side at the same stage times.  On the
    # dt = 0.025 grid, k * dt + dt is not always (k + 1) * dt.
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(sum(rows), N))
    u = rng.normal(size=(len(y), len(y)))
    t = k * h
    times = [t, t + h / 2, t + h]
    seen = {"flat": [], "blocks": []}

    def rhs(t, y, u, who="flat"):
        seen[who].append(t)
        return u @ y + np.sin(t + y), None

    def rhs_blocks(t, ys, u):
        dy, _ = rhs(t, np.concatenate(ys), u, "blocks")
        return np.split(dy, np.cumsum(rows)[:-1]), None

    def rhs_rows(stage, y, u):
        return rhs(times[stage], y, u)

    got = rk4_step(rhs_rows, h, y, u, rhs_rows(0, y, u)[0])
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
    trace = sim.run(seeded(scen, seed))
    steps_per_T = int(to_ticks(scen.comm.T, scen.dt, "T"))
    t_star = int(to_ticks(scen.comm.T_star, scen.dt, "T*"))
    used = trace.used_seq[t_star:]
    ticks = np.arange(t_star, trace.used_seq.shape[0])
    assert np.all(used >= 0)
    assert np.all(ticks[:, None] - used * steps_per_T <= t_star)


@pytest.mark.parametrize("delay_max", [3.0, 10.0])
def test_deliveries_older_than_the_bound_are_discarded(delay_max):
    # Delays of 2 and 6.7 T*: some messages arrive more than T* after
    # their send, and the mailbox discards each of them, since a fresher
    # message is in use by then.  The bound still holds from t = T* on.
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 6.0
    doc["comm"]["delay_max_seconds"] = delay_max
    scen = config.build_scenario(doc)
    trace = sim.run(scen)
    eng = Engine(scen.topo, [trace.schedules], scen.comm.T, scen.dt,
                 scen.t_end, np.arange(scen.topo.n)[:, None])
    assert np.array_equal(eng.used_seq, trace.used_seq)
    t_star, spT = floor_ticks(scen.comm.T_star, scen.dt), eng.steps_per_T
    discarded = eng.seq < eng.used_seq[eng.tick, eng.edge]
    late = eng.tick - eng.seq * spT > t_star
    assert late.any() and discarded[late].all()
    ticks = np.arange(t_star, eng.K + 1)[:, None]
    assert np.all(ticks - trace.used_seq[t_star:] * spT <= t_star)


_SHORT_FULLSTATE = load_scenario_doc("benchmark_fullstate")
_SHORT_FULLSTATE["sim"]["t_end_seconds"] = 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 30), st.integers(0, 120), st.floats(0.0, 0.95),
       st.floats(0.0, 3.0), st.integers(0, 2**31))
def test_staleness_bound_holds_for_any_comm_config(spT, extra, drop_prob,
                                                    delay_frac, seed):
    # Sampling period spT ticks, blackout bound T* = spT + extra ticks, and
    # delays up to 3 T*: from t = T* on, every edge holds a message sent at
    # most T* ago, counted in whole ticks.
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


_SHORT_OSCILLATOR = load_scenario_doc("oscillator_harmonic")
_SHORT_OSCILLATOR["sim"]["t_end_seconds"] = 3.0


@settings(max_examples=25, deadline=None)
@given(st.integers(10, 30), st.integers(0, 120), st.floats(0.0, 0.99),
       st.floats(0.0, 3.0), st.integers(0, 2**31))
def test_stage_lags_stay_within_the_blackout_bound(spT, extra, drop_prob,
                                                   delay_frac, seed):
    # At every stage of a run, each message in use is 0 to 2 T* half
    # steps old: at half tick h a message of seq s is h - 2 spT s half
    # steps old, and step k reads h = 2k, 2k + 1 and 2k + 2, tick K too.
    # These are exactly the lags oscillator_psi reads from the flow table
    # for the law's period blocks and the lags the engine tabulates, so no
    # table index is negative.
    scen = config.build_scenario(_SHORT_OSCILLATOR)
    dt = scen.dt
    comm = CommConfig(T=spT * dt, T_star=(spT + extra) * dt,
                      drop_prob=drop_prob,
                      delay_max=delay_frac * (spT + extra) * dt, seed=seed)
    scen = dataclasses.replace(scen, comm=comm)
    read = set()
    psi = NeighborView.oscillator_psi

    def spy(view, lo, flow):    # each pair's half ticks 2k to 2k + 2
        half = 2 * (lo + view.dst // len(view.p_fallback))[:, None] \
            + np.arange(3)
        read.update((half - view.send_half[:, None]).ravel().tolist())
        return psi(view, lo, flow)

    with mock.patch.object(NeighborView, "oscillator_psi", spy):
        trace = sim.run(scen)
    used = trace.used_seq
    K = used.shape[0] - 1
    half = 2 * np.arange(K + 1)[:, None] + np.arange(3)
    lags = half[:, :, None] - 2 * spT * used[:, None, :]
    lags = lags[np.broadcast_to(used[:, None, :] >= 0, lags.shape)]
    assert lags.min() >= 0
    assert lags.max() <= 2 * floor_ticks(comm.T_star, dt)
    eng = Engine(scen.topo, [trace.schedules], comm.T, dt, scen.t_end,
                 np.arange(scen.topo.n)[:, None])
    assert read == set(lags.tolist()) == set(eng.stage_lags().tolist())
    assert np.all(np.isfinite(trace.p))


def stage_lags_oracle(used: np.ndarray, spT: int) -> np.ndarray:
    """Engine.stage_lags as two sorts: the distinct ages of the messages
    in use, then the distinct ages one and two half steps on."""
    age = 2 * (np.arange(len(used))[:, None] - spT * used)
    return np.unique(np.unique(age[used >= 0])[:, None] + np.arange(3))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 200), st.integers(0, 8),
       st.integers(1, 20), st.floats(0.0, 1.0))
def test_stage_lags_match_the_sorted_oracle(seed, K, E, spT, deliver):
    # A random mailbox: at each tick an edge may take a message sent by
    # then (seq spT <= k), and keeps the freshest; none at all, too.
    rng = np.random.default_rng(seed)
    k = np.arange(K + 1)[:, None]
    got = rng.integers(0, k // spT + 1, size=(K + 1, E))
    used = np.maximum.accumulate(np.where(
        rng.random((K + 1, E)) < deliver, got, -1), axis=0)
    eng = mock.Mock(used_seq=used, K=K, steps_per_T=spT)
    lags = Engine.stage_lags(eng)
    expect = stage_lags_oracle(used, spT)
    assert lags.dtype == expect.dtype and np.array_equal(lags, expect)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(1, 30), st.integers(0, 60),
       st.floats(0.0, 0.95), st.floats(0.0, 0.99), st.integers(0, 2**31))
def test_each_period_views_all_its_ticks(K, spT, extra, drop_prob,
                                         delay_frac, seed):
    # At the first tick k0 of each sampling period the run views the pairs
    # in use at the period's ticks up to K, by tick and then edge, as one
    # row of a union of followers, whether or not they hold a message; each
    # tick gets its row of that period's block.
    dt = 0.01
    comm = CommConfig(T=spT * dt, T_star=(spT + extra) * dt,
                      drop_prob=drop_prob,
                      delay_max=delay_frac * (spT + extra) * dt, seed=seed)
    topo = bench_topology()
    eng = Engine(topo, [{e: generate_schedule(e, comm, K * dt, dt)
                         for e in topo.edges()}], comm.T, dt, K * dt,
                 np.arange(topo.n)[:, None])
    periods, rows = [], []

    def block(lo, view):
        periods.append((lo, lo + view.m // topo.m))     # at tick k0
        t, e = np.nonzero(eng.used_seq[lo:periods[-1][1]] >= 0)
        assert np.array_equal(view.dst, t * topo.m + eng.dst[e])
        assert np.array_equal(view.send_half,
                              2 * spT * eng.used_seq[lo + t, e])
        return [(lo, k) for k in range(lo, periods[-1][1])]

    def step(k, y, row):
        rows.append(row)
        return y + 1.0, 0.0
    eng.run(np.zeros((topo.n, 2)), step, (), block)
    assert periods == [(k0, min(k0 + spT, K + 1))
                       for k0 in range(0, K + 1, spT)]
    assert rows == [(k - k % spT, k) for k in range(K + 1)]


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
    schedules = sim.build_schedules(seeded(scen, 0))
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
        Engine(one_edge_topology(), [{(1, 0): sched}],
               T=0.1, dt=0.01, t_end=1.0, send=np.arange(2)[:, None])


def union_oracle(topo, schedules, K: int, spT: int, dt: float | None = None):
    """The union of the copies laid out by hand: edge (j, i) of copy b is
    (rows[b, j], rows[b, i]), the edges numbered in sorted order, and the
    deliveries due by tick K sorted by tick, edge and seq.  Given the run's
    step dt, each delay is converted from its schedule's step one message
    at a time.  The audit records carry the seconds as each schedule
    states them: sent at seq * T, arriving delay * dt later."""
    rows = union_rows(topo, len(schedules)).tolist()
    links = sorted(((r[j], r[i]), topo.weights[i, j], s)
                   for r, copy in zip(rows, schedules)
                   for (j, i), s in copy.items())

    def ticks(s, delay):
        return delay if dt is None else to_ticks(delay * s.dt, dt, "delay")

    due = sorted((seq * spT + ticks(s, delay), e, seq, seq * s.T,
                  seq * s.T + delay * s.dt)
                 for e, (_, _, s) in enumerate(links)
                 for seq, delay in enumerate(s.delay.tolist())
                 if s.delivered[seq] and seq * spT + ticks(s, delay) <= K)
    tick, edge, seq, _, _ = zip(*due)
    return {"edges": [key for key, _, _ in links],
            "w": [w for _, w, _ in links],
            "tick": list(tick), "edge": list(edge), "seq": list(seq),
            "audit": [(*links[e][0], q, send, arrival)
                      for _, e, q, send, arrival in due]}


def _copies(steps=(0.01, 0.01), t_end=5.0):
    # Copies of the benchmark graph, copy b drawn at steps[b] with seed b.
    topo = bench_topology()
    return topo, [{edge: generate_schedule(edge, CommConfig(
        T=0.1, T_star=1.0, drop_prob=0.5, delay_max=0.6, seed=b), t_end, dt)
        for edge in topo.edges()} for b, dt in enumerate(steps)]


def _compile(topo, schedules, dt=0.01, t_end=5.0) -> Engine:
    return Engine(topo, schedules, T=0.1, dt=dt, t_end=t_end,
                  send=np.arange(len(schedules) * topo.n)[:, None])


def test_engine_lays_out_copies_as_the_oracle():
    # Three copies of the benchmark graph, each with its own lossy,
    # delayed schedules, so deliveries overtake one another.
    topo, schedules = _copies(steps=(0.01,) * 3)
    eng = _compile(topo, schedules)
    got = {"edges": eng.edges, "w": eng.w.tolist(), "tick": eng.tick.tolist(),
           "edge": eng.edge.tolist(), "seq": eng.seq.tolist(),
           "audit": eng.audit()}
    assert got == union_oracle(topo, schedules, eng.K, eng.steps_per_T)
    assert len(eng.edges) == 3 * len(topo.edges())


def assert_compiles_as_the_oracle(topo, schedules, dt=0.01, t_end=5.0):
    # The deliveries and the mailbox history, the latter built from the
    # oracle's deliveries one at a time.
    eng = _compile(topo, schedules, dt, t_end)
    want = union_oracle(topo, schedules, eng.K, eng.steps_per_T, dt)
    assert (eng.tick.tolist(), eng.edge.tolist(), eng.seq.tolist()) == \
        (want["tick"], want["edge"], want["seq"])
    used = np.full((eng.K + 1, len(want["edges"])), -1)
    for tick, e, seq in zip(want["tick"], want["edge"], want["seq"]):
        used[tick:, e] = np.maximum(used[tick:, e], seq)
    assert np.array_equal(eng.used_seq, used)


def test_compile_copies_of_different_lengths():
    # One edge of the second copy drawn for 8 s in a 5 s run: its messages
    # past the run are never due.
    topo, schedules = _copies()
    edge = sorted(topo.edges())[3]
    schedules[1][edge] = generate_schedule(edge, CommConfig(
        T=0.1, T_star=1.0, drop_prob=0.5, delay_max=0.6, seed=1), 8.0, 0.01)
    assert len(schedules[1][edge].delay) == 81 > 51
    assert_compiles_as_the_oracle(topo, schedules)


def test_compile_copies_drawn_at_two_steps():
    # Run at dt / 2: the first copy's delays are in its ticks, the
    # second's are doubled.
    topo, schedules = _copies(steps=(0.005, 0.01))
    assert_compiles_as_the_oracle(topo, schedules, dt=0.005)


@pytest.mark.parametrize("delivered", [True, False])
def test_compile_rejects_a_schedule_of_another_period(delivered):
    # One schedule of the second copy claims T = 0.2 s, whether or not any
    # of its messages is delivered.
    topo, schedules = _copies()
    edge = sorted(topo.edges())[3]
    s = schedules[1][edge]
    schedules[1][edge] = dataclasses.replace(
        s, T=0.2, delivered=s.delivered & delivered)
    with pytest.raises(ValueError, match=re.escape(
            "link messages must be sent at seq*T")):
        _compile(topo, schedules)


def test_compile_names_the_union_edges_that_stop_early():
    # Two schedules of the second copy keep 50 of the run's 51 sends; the
    # error names them as edges of the union.
    topo, schedules = _copies()
    cut = sorted(topo.edges())[:2]
    _cut(schedules[1], 50, cut)
    rows = union_rows(topo, 2).tolist()
    want = sorted((rows[1][j], rows[1][i]) for j, i in cut)
    with pytest.raises(ValueError, match=re.escape(
            f"run's 51 sends: those of edges {want} stop before it ends")):
        _compile(topo, schedules)


def test_audit_in_tick_edge_seq_order_at_any_step():
    # benchmark_fullstate at comm seed 0: on edge (2, 3) at tick 392, seq
    # 35 arrives at 3.92 and seq 33 at 3.9200000000000004 s.  Ordered on
    # ticks, seq 33 comes first.  The same schedules run at dt / 2 give
    # the same audit: the ticks double, the seconds stay the schedules'.
    scen = config.build_scenario(load_scenario_doc("benchmark_fullstate"))
    schedules = sim.build_schedules(seeded(scen, 0))
    want = union_oracle(scen.topo, [schedules], 4000, 10)["audit"]
    eng = Engine(scen.topo, [schedules], scen.comm.T, scen.dt, scen.t_end,
                 np.arange(scen.topo.n)[:, None])
    assert eng.audit() == want
    tied = [(seq, arrival) for src, dst, seq, _, arrival in want
            if (src, dst) == (2, 3) and seq in (33, 35)]
    assert tied == [(33, 3.9200000000000004), (35, 3.92)]
    half = Engine(scen.topo, [schedules], scen.comm.T, scen.dt / 2,
                  scen.t_end, np.arange(scen.topo.n)[:, None])
    assert half.audit() == want


def test_engine_names_the_edge_one_copy_lacks():
    topo = bench_topology()
    full = {edge: link_schedule([0]) for edge in topo.edges()}
    short = {edge: s for edge, s in full.items() if edge != (2, 0)}
    with pytest.raises(ValueError, match=re.escape(
            "missing edges [(2, 0)], extra edges []")):
        Engine(topo, [full, short], T=0.1, dt=0.01, t_end=1.0,
               send=np.arange(2 * topo.n)[:, None])


def _cut(schedules, sends: int, edges):
    # The given edges' schedules keep only their first sends messages.
    for edge in edges:
        s = schedules[edge]
        schedules[edge] = dataclasses.replace(
            s, delay=s.delay[:sends], delivered=s.delivered[:sends],
            forced=s.forced[:sends])


def test_run_rejects_schedules_that_stop_before_it_ends():
    # Schedules drawn for 2 s leave a 10 s run without messages for 8 s,
    # far beyond T* = 1.5 s.
    scen = config.build_scenario(load_scenario_doc("benchmark_fullstate"))
    scen = dataclasses.replace(scen, t_end=10.0)
    short = sim.build_schedules(dataclasses.replace(scen, t_end=2.0))
    with pytest.raises(ScenarioError, match=re.escape(
            f"run's 101 sends: those of edges {sorted(short)} stop")):
        sim.run(scen, schedules=short)
    schedules = sim.build_schedules(scen)
    _cut(schedules, 100, [(2, 0), (5, 3)])
    with pytest.raises(ScenarioError, match=re.escape(
            "edges [(2, 0), (5, 3)] stop")):
        sim.run(scen, schedules=schedules)


def test_cascade_rejects_schedules_that_stop_before_it_ends():
    doc = load_scenario_doc("cascade_estimates")
    doc["sim"]["t_end_seconds"] = 4.0
    cas = config.build_cascade(doc)
    schedules = {edge: analysis.generate_schedule(edge, cas.comm, cas.t_end,
                                                  cas.dt)
                 for edge in cas.topo.edges()}
    last = max(schedules)
    _cut(schedules, len(schedules[last].delay) - 1, [last])
    with pytest.raises(CascadeError, match=re.escape(
            f"edges [{last}] stop before it ends")):
        analysis.simulate_cascade(cas, schedules=schedules)


@pytest.mark.parametrize("name", SCENARIOS)
def test_used_seq_equals_the_mailbox_at_every_tick(name):
    # Engine.used_seq, the history Engine.run reads, against the
    # mailbox updated tick by tick.
    doc = load_scenario_doc(name)
    if name == "cascade_estimates":
        run = config.build_cascade(doc)
    else:
        run = config.build_scenario(doc)
    topo = run.topo
    schedules = {edge: generate_schedule(edge, run.comm, run.t_end, run.dt)
                 for edge in topo.edges()}
    eng = Engine(topo, [schedules], run.comm.T, run.dt, run.t_end,
                 np.arange(topo.n)[:, None])
    assert np.array_equal(eng.used_seq, mailbox_oracle(eng))


def test_one_view_per_period(monkeypatch):
    # Each sampling period has one view, of all its ticks up to K, and no
    # step builds another.
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 3.05
    scen = config.build_scenario(doc)
    built = []
    view = Engine.view

    def counting(self, lo, hi, states):
        built.append((lo, hi))
        return view(self, lo, hi, states)

    monkeypatch.setattr(Engine, "view", counting)
    trace = sim.run(seeded(scen, 0))
    K = len(trace.times) - 1
    assert built == [(k0, min(k0 + 10, K + 1)) for k0 in range(0, K + 1, 10)]


def traced_views(monkeypatch) -> list:
    """Make every Engine.view record (engine, lo, hi, states, view)."""
    views, view = [], Engine.view

    def spy(self, lo, hi, states):
        views.append((self, lo, hi, states, view(self, lo, hi, states)))
        return views[-1][-1]
    monkeypatch.setattr(Engine, "view", spy)
    return views


def assert_views_read_states(views, message, fallback, width):
    """Each period view's message rows equal message(tick, sender), its
    fallback equals fallback, and the view of no tick has no messages but
    width columns."""
    eng, _, _, states, _ = views[-1]
    for _, lo, hi, _, view in views:
        t, e = np.nonzero(eng.used_seq[lo:hi] >= 0)
        assert np.array_equal(view.msg, [
            message(eng.steps_per_T * seq, src)
            for seq, src in zip(eng.used_seq[lo + t, e], eng.src[e])] or
            np.empty((0, width)))
        assert np.array_equal(view.p_fallback, fallback)
    empty = eng.view(0, 0, states)
    assert empty.msg.shape == (0, width) and not empty.live.any()


@pytest.mark.parametrize("name", ["benchmark_fullstate",
                                  "oscillator_harmonic"])
def test_scenario_messages_are_state_rows(monkeypatch, name):
    # A follower sends its position and its law's vhat, a leader its
    # position and velocity, both as they were at the send tick.
    doc = load_scenario_doc(name)
    doc["sim"]["t_end_seconds"] = 2.0
    scen = config.build_scenario(doc)
    views = traced_views(monkeypatch)
    trace = sim.run(seeded(scen, 3))
    m, N = trace.m, scen.N
    vhat = np.concatenate((trace.internals["vhat"], trace.v[:, m:]), axis=1)
    assert len(views) > 1
    assert_views_read_states(
        views, lambda k, j: np.r_[trace.p[k, j], vhat[k, j]], scen.p0[:m],
        2 * N)


def test_cascade_messages_are_state_rows(monkeypatch):
    # Each agent of each copy sends its eta at the send tick.
    doc = load_scenario_doc("cascade_estimates")
    doc["sim"]["t_end_seconds"] = 4.0
    cas = config.build_cascade(doc)
    base = seeded(cas, 0)
    changes = [{}, {"comm": seeded(cas, 1).comm, "eta0": cas.eta0 + 1.0}]
    views = traced_views(monkeypatch)
    traces = analysis.simulate_cascades(base, changes)
    rows, m = views[-1][0].rows, cas.topo.m

    def message(k, j):
        b, i = np.argwhere(rows == j)[0]
        return traces[b].eta[k, i]
    assert len(views) > 1
    assert_views_read_states(views, message, np.concatenate(
        [tr.cfg.eta0[:m] for tr in traces]), cas.N)


# The divergence guard, on a toy right-hand side.  At dt = 6 a step adds
# dt / 6 * (k1 + 2 k2 + 2 k3 + k4) = k1 exactly when the later stages are
# 0, so a value the start stage of step j puts into a state entry that is 0
# lands in it unrounded at tick j + 1.  The state is sim.run's layout: p
# and v of two agents, watched, then a row of unwatched internals.
GUARD_WATCH = (("p", 2, 1), ("v", 2, 1))
GUARD_STEP, GUARD_DT = 3, 6.0


def guard_run(row: int, value: float, watch=GUARD_WATCH):
    """Run six steps from a state whose column 0 is 0 and column 1 is not;
    step GUARD_STEP adds value to entry (row, 0).  Returns y0 and the
    engine's state history."""
    K, dt = 6, GUARD_DT
    eng = Engine(one_edge_topology(),
                 [{(1, 0): link_schedule([0] * (K + 1), T=dt, dt=dt)}],
                 T=dt, dt=dt, t_end=K * dt, send=np.arange(2)[:, None])
    y0 = np.zeros((5, 2))
    y0[:, 1] = np.arange(1.0, 6.0)

    def rhs(r, y, view):
        dy = np.zeros_like(y)
        if r == (GUARD_STEP, 0):            # the start of step GUARD_STEP
            dy[row, 0] = value
        return dy, 0.0
    states, _ = run_on_views(eng, y0, rhs, watch)
    return y0, states


OVER = np.nextafter(DIVERGENCE_LIMIT, np.inf)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, OVER, -OVER])
@pytest.mark.parametrize("row, variable, agent", [(0, "p", 0), (1, "p", 1),
                                                  (3, "v", 1)])
def test_guard_raises_past_the_limit(value, row, variable, agent):
    y0, _ = guard_run(row, 0.0)             # the run without the value
    with pytest.raises(DivergenceError) as exc:
        guard_run(row, value)
    err = exc.value
    assert (err.t, err.agent, err.variable, err.copy) == \
        ((GUARD_STEP + 1) * GUARD_DT, agent, variable, None)
    assert err.last_norm == np.linalg.norm(y0[row])


@pytest.mark.parametrize("value", [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT])
def test_guard_passes_the_limit_itself(value):
    _, states = guard_run(3, value)
    assert states[GUARD_STEP + 1:, 3, 0].tolist() == [value] * 3


def test_guard_ignores_unwatched_rows():
    _, states = guard_run(4, np.nan)        # a law internal
    assert np.isnan(states[GUARD_STEP + 1:, 4, 0]).all()


def test_guard_with_an_empty_watch():
    _, states = guard_run(0, np.nan, watch=())
    assert np.isnan(states[-1, 0, 0])
    assert not np.isnan(states[:, 1:]).any()


# The guard checks a period's states with one reduction after its last
# step.  At T = 5 dt, step PERIOD_STEP puts the value at tick 7, the third
# of the period of ticks 5 to 9, and the ticks after it carry it on: the
# error must still name tick 7, as a check after every step does.
PERIOD_STEPS, PERIOD_STEP = 5, 6


def period_guard_run(row: int, value: float, copies: int, back=False):
    """guard_run's steps over 15 ticks on copies of its graph, T = 5 dt
    and five state rows per copy (p, v, then one internal per follower);
    step PERIOD_STEP adds value to entry (row, 0), and with back the next
    step takes it away.  Any RuntimeWarning is an error.  Returns y0."""
    K, dt = 15, GUARD_DT
    T = PERIOD_STEPS * dt
    eng = Engine(one_edge_topology(),
                 [{(1, 0): link_schedule([0] * 4, T=T, dt=dt)}] * copies,
                 T=T, dt=dt, t_end=K * dt,
                 send=np.arange(2 * copies)[:, None])
    y0 = np.zeros((5 * copies, 2))
    y0[:, 1] = np.arange(1.0, len(y0) + 1)

    def rhs(r, y, view):
        dy = np.zeros_like(y)
        if r == (PERIOD_STEP, 0):
            dy[row, 0] = value
        if back and r == (PERIOD_STEP + 1, 0):
            dy[row, 0] = -value
        return dy, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_on_views(eng, y0, rhs, (("p", 2 * copies, 1),
                                    ("v", 2 * copies, 1)))
    return y0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, OVER, -OVER])
@pytest.mark.parametrize("copies, row, variable, agent, copy", [
    (1, 0, "p", 0, None), (1, 3, "v", 1, None),
    # Two copies: followers are union rows 0 and 1, leaders 2 and 3.
    (2, 1, "p", 0, 1), (2, 3, "p", 1, 1), (2, 6, "v", 1, 0)])
def test_guard_names_the_tick_inside_its_period(value, copies, row,
                                                variable, agent, copy):
    y0 = period_guard_run(row, 0.0, copies)
    with pytest.raises(DivergenceError) as exc:
        period_guard_run(row, value, copies)
    err = exc.value
    assert (err.t, err.agent, err.variable, err.copy) == \
        ((PERIOD_STEP + 1) * GUARD_DT, agent, variable, copy)
    assert err.last_norm == np.linalg.norm(y0[row])


@pytest.mark.parametrize("value", [OVER, -OVER])
def test_guard_sees_a_value_back_in_range_by_the_period_end(value):
    # Tick 7 is out of range, tick 8 and the period's last tick 9 are not.
    with pytest.raises(DivergenceError) as exc:
        period_guard_run(3, value, 1, back=True)
    assert (exc.value.t, exc.value.variable) == \
        ((PERIOD_STEP + 1) * GUARD_DT, "v")


def per_tick_guard(states, dt: float, watch, rows) -> tuple | None:
    """(t, agent, variable, last_norm, copy) a check after every step
    reports on the state history: the first step k whose state at k + 1
    has a watched entry out of range, in it the first variable of watch,
    then its first agent, and that agent's norm at tick k."""
    for k in range(len(states) - 1):
        at = 0
        for variable, agents, per_agent in watch:
            for r in range(agents):
                x = slice(at + r * per_agent, at + (r + 1) * per_agent)
                if not np.all(np.abs(states[k + 1, x]) <= DIVERGENCE_LIMIT):
                    copy, agent = np.argwhere(rows == r)[0].tolist()
                    return (k * dt + dt, agent, variable,
                            float(np.linalg.norm(states[k, x])),
                            copy if len(rows) > 1 else None)
            at += agents * per_agent
    return None


def assert_guard_as_per_tick(run) -> tuple:
    """run() raises the error per_tick_guard gives on the history of run()
    without the guard, and no RuntimeWarning escapes it.  Returns the
    engine, that history and the error's fields."""
    got, engine_run = [], Engine.run

    def unguarded(self, y, step, watch, block):
        states, outs = engine_run(self, y, step, (), block)
        got.append((self, watch, states))
        return states, outs
    with mock.patch.object(Engine, "run", unguarded), \
            np.errstate(all="ignore"):
        run()
    (eng, watch, states), = got
    want = per_tick_guard(states, eng.dt, watch, eng.rows)
    with warnings.catch_warnings(), pytest.raises(DivergenceError) as exc:
        warnings.simplefilter("error")
        run()
    err = exc.value
    assert (err.t, err.agent, err.variable, err.last_norm, err.copy) == want
    return eng, states, want


def cascade_batch(k_eta: float) -> tuple:
    """The bundled cascade over 0.5 s, and its copies: itself, then itself
    at rate k_eta."""
    cas = dataclasses.replace(config.build_cascade(
        load_scenario_doc("cascade_estimates")), t_end=0.5)
    return cas, [{}, {"k_eta": k_eta}]


def test_guard_names_the_copy_inside_a_cascade_period():
    # Copy 1 of a two-copy cascade batch, at k_eta = 150, first leaves the
    # range at tick 15, inside the period of ticks 10 to 19, and stays out
    # for the rest of it.
    batch = cascade_batch(150.0)
    eng, states, want = assert_guard_as_per_tick(
        lambda: analysis.simulate_cascades(*batch))
    k = round(want[0] / eng.dt)
    # The cascade watches every row.
    out = ~np.all(np.abs(states) <= DIVERGENCE_LIMIT, axis=(1, 2))
    assert (k, eng.steps_per_T, want[4]) == (15, 10, 1)
    assert out[k:20].all() and not out[:k].any()


def nonlinear_run():
    doc = load_scenario_doc("benchmark_nonlinear")
    doc["sim"]["t_end_seconds"] = 0.2
    doc["controllers"]["gains"]["lam"] = 2000.0
    sim.run(config.build_scenario(doc))


@pytest.mark.parametrize("run", [
    nonlinear_run, lambda: analysis.simulate_cascades(*cascade_batch(1e10))],
    ids=["nonlinear_vs", "cascade"])
def test_no_warning_escapes_a_diverging_period(run):
    # After the first state out of range the period steps on, through
    # overflows, an inf minus an inf and divisions of them, which must not
    # warn: the error alone reports the divergence.
    assert_guard_as_per_tick(run)
