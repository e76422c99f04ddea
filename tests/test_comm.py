import csv
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from containsim import comm, config
from containsim.comm import (
    INF,
    TICK_TOL,
    CommConfig,
    CommConfigError,
    export_schedule_csv,
    generate_schedule,
    verify_blackout_bound,
)
from containsim.engine import Engine
from conftest import SCENARIOS, link_schedule, load_scenario_doc


def whole_ticks(seconds: float, dt: float) -> int:
    """seconds / dt rounded down, a quotient within TICK_TOL of a whole
    number counting as that number."""
    x = seconds / dt
    return round(x) if abs(x - round(x)) <= TICK_TOL else math.floor(x)


def repair_blackouts_oracle(sched, T_star: float, delay_max: float) -> None:
    """The repair pass on integer ticks, scanning every message on every
    chain extension."""
    spT = round(sched.T / sched.dt)
    t_star = whole_ticks(T_star, sched.dt)
    d_max = whole_ticks(delay_max, sched.dt)
    n = len(sched.delay)
    chain = None
    deadline = t_star
    guard = 0
    while chain is None or chain < n - 1:
        candidates = [s for s in range(n)
                      if sched.delivered[s]
                      and (chain is None or s > chain)
                      and s * spT + sched.delay[s] <= deadline]
        if candidates:
            chain = max(candidates)
        else:
            chain = 0 if chain is None else chain + 1
            sched.delay[chain] = min(d_max, deadline - chain * spT)
            sched.delivered[chain] = sched.forced[chain] = True
        deadline = chain * spT + t_star
        guard += 1
        if guard > 2 * n + 4:
            raise RuntimeError("blackout repair failed to terminate")


def repair_blackouts_float_oracle(sched, T_star: float,
                                  delay_max: float) -> None:
    """The repair pass on float seconds, scanning every message on every
    chain extension, with its forced delays floored at dt plus 1e-9 slack.
    It reads an arrival exactly at the deadline as late when rounding puts
    it above, so it equals the tick repair only where no arrival can tie a
    deadline."""
    dt = sched.dt
    send, delay = (a.tolist() for a in sched.seconds())
    arrival = [s + d for s, d in zip(send, delay)]
    max_send = max(send)
    chain_send = None
    deadline = T_star
    while chain_send is None or chain_send < max_send:
        candidates = [k for k in range(len(send))
                      if delay[k] != INF
                      and (chain_send is None or send[k] > chain_send)
                      and arrival[k] <= deadline]
        if candidates:
            chain_send = max(send[k] for k in candidates)
        else:
            k = min(k for k in range(len(send))
                    if chain_send is None or send[k] > chain_send)
            ticks = math.floor(min(delay_max, deadline - send[k]) / dt + 1e-9)
            sched.delay[k] = ticks
            sched.delivered[k] = sched.forced[k] = True
            delay[k] = ticks * dt
            arrival[k] = send[k] + delay[k]
            chain_send = send[k]
        deadline = chain_send + T_star


def export_schedule_csv_oracle(schedules, path: str) -> None:
    """The schedule export one message at a time: its send time seq * T,
    delay ticks * dt (inf when dropped) and arrival, in Python floats."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "seq", "send_time", "delay", "arrival_time"])
        for (j, i), sched in sorted(schedules.items()):
            for seq, (ticks, ok) in enumerate(zip(sched.delay.tolist(),
                                                  sched.delivered.tolist())):
                send_time = seq * sched.T
                delay_s = ticks * sched.dt if ok else INF
                delay = "inf" if delay_s == INF else repr(delay_s)
                arrival = "inf" if delay_s == INF else \
                    repr(send_time + delay_s)
                w.writerow([j, i, seq, repr(send_time), delay, arrival])


def schedule_arrays(sched) -> tuple:
    return (sched.delay.tolist(), sched.delivered.tolist(),
            sched.forced.tolist())


def arrivals(sched) -> np.ndarray:
    """Arrival times in seconds of the delivered messages, with their
    send times: (2, delivered) rows arrival, send."""
    send, delay = sched.seconds()
    ok = sched.delivered
    return np.stack([send[ok] + delay[ok], send[ok]])


@st.composite
def comm_draws(draw):
    """A CommConfig with at most a few hundred sends, a horizon and a step."""
    T = draw(st.floats(0.01, 1.0))
    T_star = T * draw(st.floats(1.0, 20.0))
    c = CommConfig(T=T, T_star=T_star,
                   drop_prob=draw(st.floats(0.0, 0.99)),
                   delay_max=T_star * draw(st.floats(0.0, 0.999)),
                   seed=draw(st.integers(0, 2**32)))
    t_end = T * draw(st.floats(0.0, 300.0))
    dt = T / draw(st.integers(1, 50))
    return c, t_end, dt


def cfg(**kw):
    base = dict(T=0.1, T_star=1.5, drop_prob=0.2, delay_max=1.0, seed=0)
    base.update(kw)
    return CommConfig(**base)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(CommConfigError):
            CommConfig(T=0.0, T_star=1.0)
        with pytest.raises(CommConfigError):
            CommConfig(T=0.5, T_star=0.4)
        with pytest.raises(CommConfigError):
            CommConfig(T=0.1, T_star=1.0, drop_prob=1.0)
        with pytest.raises(CommConfigError):
            CommConfig(T=0.1, T_star=1.0, delay_max=1.0)
        with pytest.raises(CommConfigError):
            CommConfig(T=0.1, T_star=1.0, delay_max=-0.1)


class TestScheduleGeneration:
    def test_deterministic_per_edge_seed(self):
        a = generate_schedule((2, 5), cfg(), 20.0, 0.01)
        b = generate_schedule((2, 5), cfg(), 20.0, 0.01)
        c = generate_schedule((5, 2), cfg(), 20.0, 0.01)
        assert schedule_arrays(a) == schedule_arrays(b)
        assert schedule_arrays(a) != schedule_arrays(c)

    def test_sends_on_sampling_grid(self):
        sched = generate_schedule((0, 1), cfg(), 5.0, 0.01)
        assert len(sched.delay) == 51
        send, _ = sched.seconds()
        for k, t in enumerate(send):
            assert t == pytest.approx(k * 0.1, abs=1e-12)

    def test_delays_on_integration_grid(self):
        dt = 0.01
        sched = generate_schedule((0, 1), cfg(), 30.0, dt)
        assert sched.delay.dtype.kind == "i"
        _, delay = sched.seconds()
        for d in delay[sched.delivered]:
            assert 0.0 <= d <= 1.0 + 1e-12

    def test_blackout_bound_holds_in_bulk(self):
        ok = 0
        for seed in range(250):
            for edge in ((0, 1), (3, 7), (11, 2), (4, 4 + seed % 3 + 1)):
                sched = generate_schedule(
                    edge, cfg(seed=seed, drop_prob=0.5), 20.0, 0.01)
                assert verify_blackout_bound(sched, 1.5)
                ok += 1
        assert ok == 1000

    def test_extreme_drop_rate_still_delivers(self):
        # Near-certain drops: the repair pass must still guarantee at least
        # one delivery in every window of the blackout length.
        sched = generate_schedule((1, 2), cfg(drop_prob=0.999), 30.0, 0.01)
        arrival = np.sort(arrivals(sched)[0])
        assert arrival.size, "repair produced no deliveries"
        t = 0.0
        while t + 1.5 <= 30.0 + 1e-9:
            assert any(t <= a <= t + 1.5 + 1e-9 for a in arrival), \
                f"window [{t}, {t + 1.5}] has no delivery"
            t += 0.1
        assert verify_blackout_bound(sched, 1.5)

    def test_verifier_flags_long_blackout(self):
        sched = generate_schedule((1, 2), cfg(drop_prob=0.0), 20.0, 0.01)
        # kill every delivery in (5, 8): a 3 s blackout against T* = 1.5
        send, delay = sched.seconds()
        sched.delivered[(5.0 < send + delay) & (send + delay < 8.0)] = False
        assert not verify_blackout_bound(sched, 1.5)

    def test_verifier_accepts_short_tail_gap(self):
        sched = generate_schedule((1, 2), cfg(drop_prob=0.0), 20.0, 0.01)
        send, _ = sched.seconds()
        sched.delivered[send > 19.0] = False
        assert verify_blackout_bound(sched, 1.5)

    def test_zero_delay_zero_drop(self):
        sched = generate_schedule((1, 2),
                                  cfg(drop_prob=0.0, delay_max=0.0),
                                  5.0, 0.01)
        assert sched.delivered.all() and not sched.forced.any()
        assert not sched.delay.any()
        send, delay = sched.seconds()
        assert np.array_equal(send + delay, send)

    def test_staleness_bounded_by_blackout(self):
        # At any time past the first bound, the freshest delivered sample is
        # never older than T* + delay_max.
        c = cfg(drop_prob=0.6, delay_max=0.4, T_star=1.0)
        sched = generate_schedule((0, 1), c, 40.0, 0.01)
        arrival, send = arrivals(sched)
        for t in np.arange(1.0, 40.0, 0.13):
            assert (arrival <= t).any()
            assert t - send[arrival <= t].max() <= 1.0 + 0.4 + 1e-9

    def test_arrival_at_the_deadline_is_on_time(self):
        # T = 0.1, T* = 0.2, dt = 0.1 ticks: seqs 2-6 and 8 are dropped.
        # From seq 5, seq 7 arrives at tick 7, exactly T* later, so seq 6
        # need not be forced; in float seconds 7 * 0.1 = 0.7000000000000001
        # exceeds 0.5 + 0.2 and read as late.
        c = CommConfig(T=0.1, T_star=0.2, drop_prob=0.5, delay_max=0.0,
                       seed=10)
        sched = generate_schedule((0, 1), c, 1.0, 0.1)
        assert np.flatnonzero(~sched.delivered).tolist() == [6, 8]
        assert np.flatnonzero(sched.forced).tolist() == [2, 3, 4, 5, 10]
        assert verify_blackout_bound(sched, 0.2)
        assert not verify_blackout_bound(sched, 0.1)

    def test_verifier_counts_ticks_not_rounded_seconds(self):
        # Every other message delivered with no delay, against T* = 2T: each
        # arrival meets its deadline exactly.  At these send times the
        # float arrival exceeds the float deadline by more than 1e-12 s.
        T = 1000.3
        sched = link_schedule([0, None] * 10 + [0], T=T, dt=T)
        assert verify_blackout_bound(sched, 2 * T)
        assert not verify_blackout_bound(sched, T)

    def test_tracer_event_view(self):
        # The record view the benchmark tracer counts: one record per send,
        # delay in seconds, inf when dropped.
        sched = link_schedule([5, None, 0], T=0.1, dt=0.01)
        ev = sched.events
        assert ev.seq.tolist() == [0, 1, 2]
        assert ev.send_time.tolist() == [0.0, 0.1, 0.2]
        assert ev.delay.tolist() == [0.05, INF, 0.0]
        assert sum(e.delay != float("inf") for e in ev) == 2


class TestScheduleExport:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_csv_bytes_equal_the_per_message_export(self, name, tmp_path):
        doc = load_scenario_doc(name)
        build = config.build_cascade if "cascade" in doc else \
            config.build_scenario
        run = build(doc)
        for seed in range(5):
            c = dataclasses.replace(run.comm, seed=seed)
            schedules = {edge: generate_schedule(edge, c, run.t_end, run.dt)
                         for edge in run.topo.edges()}
            export_schedule_csv(schedules, str(tmp_path / "got.csv"))
            export_schedule_csv_oracle(schedules, str(tmp_path / "want.csv"))
            assert (tmp_path / "got.csv").read_bytes() == \
                (tmp_path / "want.csv").read_bytes()


class TestRepairProperties:
    @settings(max_examples=150, deadline=None)
    @given(comm_draws())
    def test_windowed_repair_matches_oracle(self, draw):
        c, t_end, dt = draw
        sched = generate_schedule((2, 5), c, t_end, dt)
        with mock.patch.object(comm, "_repair_blackouts",
                               repair_blackouts_oracle):
            oracle = generate_schedule((2, 5), c, t_end, dt)
        assert schedule_arrays(sched) == schedule_arrays(oracle)

    @settings(max_examples=150, deadline=None)
    @given(comm_draws())
    def test_repair_matches_float_oracle_off_ties(self, draw):
        # Where T*/dt is no whole number, no arrival can tie a deadline, so
        # the float repair and the tick repair agree.
        c, t_end, dt = draw
        x = c.T_star / dt
        assume(abs(x - round(x)) > TICK_TOL)
        sched = generate_schedule((2, 5), c, t_end, dt)
        with mock.patch.object(comm, "_repair_blackouts",
                               repair_blackouts_float_oracle):
            oracle = generate_schedule((2, 5), c, t_end, dt)
        assert schedule_arrays(sched) == schedule_arrays(oracle)

    @settings(max_examples=150, deadline=None)
    @given(comm_draws())
    def test_every_schedule_passes_the_verifier(self, draw):
        c, t_end, dt = draw
        assert verify_blackout_bound(generate_schedule((0, 1), c, t_end, dt),
                                     c.T_star)


# Delays in ticks of 0.01 s out of send order: seq 1 overtakes seq 0, seq 2
# is dropped, seq 4 overtakes seq 3, and seq 5 would arrive after the 1 s
# horizon.
OUT_OF_ORDER = (50, 5, None, 30, 0, 70)
FALLBACK = np.array([[7.0]])
# Every sender's payload at sample seq is the number seq.
HIST = np.repeat(np.arange(11.0)[:, None, None], 2, axis=1)


def one_edge_engine(delays=OUT_OF_ORDER):
    """The engine's mailbox on edge leader 1 -> follower 0, T=0.1, dt=0.01."""
    sched = link_schedule(delays)
    return Engine([((1, 0), 1.0, sched)], T=0.1, dt=0.01, t_end=1.0,
                  fallback=FALLBACK), sched


class TestMailbox:
    def test_keeps_freshest_sequence(self):
        eng, _ = one_edge_engine()
        seen = []
        for k in range(eng.K + 1):
            eng.deliver(k)
            seen.append(int(eng.box[0]))
        assert seen == [-1] * 15 + [1] * 25 + [4] * 61
        view = eng.view(HIST)
        assert view.p_msg.tolist() == [[4.0]]
        assert view.send_time.tolist() == [0.4]

    def test_latest_message_none_before_first_arrival(self):
        eng, _ = one_edge_engine()
        for k in range(15):
            eng.deliver(k)
        assert eng.box.tolist() == [-1]
        view = eng.view(HIST)
        assert view.dst.size == 0 and not view.live.any()
        assert view.p_avg().tolist() == FALLBACK.tolist()

    def test_advance_applies_window(self):
        # Each tick applies exactly the arrivals of its window, checked
        # against the float arrival times (1e-12 slack for rounding).
        eng, sched = one_edge_engine()
        arrival, send = arrivals(sched)
        seq = np.flatnonzero(sched.delivered)
        for k in range(eng.K + 1):
            eng.deliver(k)
            want = max(seq[arrival <= k * 0.01 + 1e-12], default=-1)
            assert eng.box[0] == want
        assert [rec[2] for rec in eng.audit()] == [1, 4, 0, 3]
