import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import comm
from containsim.comm import (
    INF,
    CommConfig,
    CommConfigError,
    LinkEvent,
    LinkSchedule,
    generate_schedule,
    verify_blackout_bound,
)
from containsim.engine import Engine


def repair_blackouts_oracle(events: list[LinkEvent], cfg: CommConfig,
                            t_end: float, dt: float) -> None:
    """The repair pass scanning every event on every chain extension."""
    if not events:
        return
    max_send = max(e.send_time for e in events)
    chain_send = None
    deadline = cfg.T_star
    guard = 0
    while chain_send is None or chain_send < max_send:
        candidates = [e for e in events
                      if e.delay != INF
                      and (chain_send is None or e.send_time > chain_send)
                      and e.arrival <= deadline]
        if candidates:
            chain_send = max(c.send_time for c in candidates)
        else:
            later = [e for e in events
                     if chain_send is None or e.send_time > chain_send]
            forced = min(later, key=lambda e: e.send_time)
            delay = min(cfg.delay_max, deadline - forced.send_time)
            forced.delay = math.floor(delay / dt + 1e-9) * dt
            chain_send = forced.send_time
        deadline = chain_send + cfg.T_star
        guard += 1
        if guard > 2 * len(events) + 4:
            raise RuntimeError("blackout repair failed to terminate")


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
        assert [(e.seq, e.send_time, e.delay) for e in a.events] == \
            [(e.seq, e.send_time, e.delay) for e in b.events]
        assert [(e.seq, e.send_time, e.delay) for e in a.events] != \
            [(e.seq, e.send_time, e.delay) for e in c.events]

    def test_sends_on_sampling_grid(self):
        sched = generate_schedule((0, 1), cfg(), 5.0, 0.01)
        assert len(sched.events) == 51
        for k, ev in enumerate(sched.events):
            assert ev.seq == k
            assert ev.send_time == pytest.approx(k * 0.1, abs=1e-12)

    def test_delays_on_integration_grid(self):
        dt = 0.01
        sched = generate_schedule((0, 1), cfg(), 30.0, dt)
        for ev in sched.events:
            if ev.delay != math.inf:
                steps = ev.delay / dt
                assert abs(steps - round(steps)) < 1e-9
                assert 0.0 <= ev.delay <= 1.0 + 1e-12

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
        arrivals = sorted(ev.arrival for ev in sched.events
                          if ev.delay != math.inf)
        assert arrivals, "repair produced no deliveries"
        t = 0.0
        while t + 1.5 <= 30.0 + 1e-9:
            assert any(t <= a <= t + 1.5 + 1e-9 for a in arrivals), \
                f"window [{t}, {t + 1.5}] has no delivery"
            t += 0.1
        assert verify_blackout_bound(sched, 1.5)

    def test_verifier_flags_long_blackout(self):
        sched = generate_schedule((1, 2), cfg(drop_prob=0.0), 20.0, 0.01)
        # kill every delivery in (5, 8): a 3 s blackout against T* = 1.5
        for ev in sched.events:
            if 5.0 < ev.arrival < 8.0:
                ev.delay = math.inf
        assert not verify_blackout_bound(sched, 1.5)

    def test_verifier_accepts_short_tail_gap(self):
        sched = generate_schedule((1, 2), cfg(drop_prob=0.0), 20.0, 0.01)
        for ev in sched.events:
            if ev.send_time > 19.0:
                ev.delay = math.inf
        assert verify_blackout_bound(sched, 1.5)

    def test_zero_delay_zero_drop(self):
        sched = generate_schedule((1, 2),
                                  cfg(drop_prob=0.0, delay_max=0.0),
                                  5.0, 0.01)
        for ev in sched.events:
            assert ev.delay == 0.0
            assert ev.arrival == ev.send_time

    def test_staleness_bounded_by_blackout(self):
        # At any time past the first bound, the freshest delivered sample is
        # never older than T* + delay_max.
        c = cfg(drop_prob=0.6, delay_max=0.4, T_star=1.0)
        sched = generate_schedule((0, 1), c, 40.0, 0.01)
        arrivals = sorted((ev.arrival, ev.send_time) for ev in sched.events
                          if ev.delay != math.inf)
        for t in np.arange(1.0, 40.0, 0.13):
            latest_send = max((s for a, s in arrivals if a <= t),
                              default=None)
            assert latest_send is not None
            assert t - latest_send <= 1.0 + 0.4 + 1e-9


class TestRepairProperties:
    @settings(max_examples=150, deadline=None)
    @given(comm_draws())
    def test_windowed_repair_matches_oracle(self, draw):
        c, t_end, dt = draw
        sched = generate_schedule((2, 5), c, t_end, dt)
        with mock.patch.object(comm, "_repair_blackouts",
                               repair_blackouts_oracle):
            oracle = generate_schedule((2, 5), c, t_end, dt)
        assert sched == oracle

    @settings(max_examples=150, deadline=None)
    @given(comm_draws())
    def test_every_schedule_passes_the_verifier(self, draw):
        c, t_end, dt = draw
        assert verify_blackout_bound(generate_schedule((0, 1), c, t_end, dt),
                                     c.T_star)


# Delays out of send order: seq 1 overtakes seq 0, seq 2 is dropped, seq 4
# overtakes seq 3, and seq 5 would arrive after the 1 s horizon.
OUT_OF_ORDER = (0.5, 0.05, math.inf, 0.3, 0.0, 0.7)
FALLBACK = np.array([[7.0]])
# Every sender's payload at sample seq is the number seq.
HIST = np.repeat(np.arange(11.0)[:, None, None], 2, axis=1)


def one_edge_engine(delays=OUT_OF_ORDER):
    """The engine's mailbox on edge leader 1 -> follower 0, T=0.1, dt=0.01."""
    events = [LinkEvent(seq=k, send_time=k * 0.1, delay=d)
              for k, d in enumerate(delays)]
    return Engine([((1, 0), 1.0, LinkSchedule((1, 0), events))], T=0.1,
                  dt=0.01, t_end=1.0, fallback=FALLBACK), events


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
        eng, events = one_edge_engine()
        for k in range(eng.K + 1):
            eng.deliver(k)
            want = max((ev.seq for ev in events
                        if ev.arrival <= k * 0.01 + 1e-12), default=-1)
            assert eng.box[0] == want
        assert [rec[2] for rec in eng.audit()] == [1, 4, 0, 3]
