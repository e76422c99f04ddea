"""Sampled, delayed, lossy per-edge message transport.

Each edge (j, i) transmits at every sample instant k*T.  A transmission is
either dropped (delay = inf) or delivered after a finite delay; a repair pass
then guarantees that consecutive delivered messages are never further apart
than the blackout bound T_star.  Delays are whole multiples of the
integration step dt; ``engine.Engine`` compiles these schedules into integer
arrival ticks (``to_ticks``) and keeps, per edge, the highest sequence number
among the messages already arrived.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf
TICK_TOL = 1e-9


class CommConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CommConfig:
    T: float                 # sampling period, seconds
    T_star: float            # blackout bound, seconds
    drop_prob: float = 0.0
    delay_max: float = 0.0   # maximum finite delay, seconds
    seed: int = 0

    def __post_init__(self):
        if self.T <= 0:
            raise CommConfigError("sampling period T must be > 0")
        if self.T_star < self.T:
            raise CommConfigError("T_star must be >= T")
        if not (0.0 <= self.drop_prob < 1.0):
            raise CommConfigError("drop_prob must be in [0, 1)")
        if self.delay_max < 0:
            raise CommConfigError("delay_max must be >= 0")
        if self.delay_max >= self.T_star:
            raise CommConfigError("delay_max must be < T_star")


@dataclass
class LinkEvent:
    seq: int
    send_time: float
    delay: float    # inf means dropped

    @property
    def arrival(self) -> float:
        return self.send_time + self.delay


@dataclass
class LinkSchedule:
    edge: tuple[int, int]     # (src j, dst i)
    events: list[LinkEvent]


def to_ticks(seconds, dt: float, what: str, error=ValueError) -> np.ndarray:
    """seconds / dt as whole ticks; raises error unless dt divides them."""
    x = np.asarray(seconds, dtype=float) / dt
    k = np.round(x)
    if not (np.abs(x - k) <= TICK_TOL).all():
        raise error(f"dt must divide {what}")
    return k.astype(int)


def period_ticks(T: float, dt: float, t_end: float, error=ValueError) -> int:
    """Ticks of dt per sampling period T; raises error unless dt and the
    horizon t_end are positive and dt divides both T and t_end."""
    for key, val in (("sim.dt_seconds", dt), ("sim.t_end_seconds", t_end)):
        if not val > 0:
            raise error(f"{key} must be > 0, got {val!r}")
    to_ticks(t_end, dt, "sim.t_end_seconds", error)
    return int(to_ticks(T, dt, "the sampling period T", error))


def _edge_rng(cfg: CommConfig, edge: tuple[int, int]) -> np.random.Generator:
    # Independent, reproducible stream per (seed, j, i).
    ss = np.random.SeedSequence([cfg.seed & 0xFFFFFFFFFFFFFFFF, edge[0], edge[1]])
    return np.random.default_rng(ss)


def generate_schedule(edge: tuple[int, int], cfg: CommConfig, t_end: float,
                      dt: float) -> LinkSchedule:
    """Bernoulli drops + uniform delays on the kT grid, then a repair pass.

    Delays are quantized to the integration step dt so every arrival lands on
    the integration grid.  The repair pass walks an Assumption-2 chain: when
    no delivered event can arrive within T_star of the previous chain send,
    the earliest following event is forced through (delay capped so the chain
    constraint holds).
    """
    rng = _edge_rng(cfg, edge)
    n_events = int(math.floor(t_end / cfg.T)) + 1
    drops = rng.random(n_events) < cfg.drop_prob
    raw_delays = rng.uniform(0.0, cfg.delay_max, n_events)
    events = []
    for k in range(n_events):
        if drops[k]:
            delay = INF
        else:
            delay = round(raw_delays[k] / dt) * dt
        events.append(LinkEvent(seq=k, send_time=k * cfg.T, delay=delay))

    _repair_blackouts(events, cfg, t_end, dt)
    return LinkSchedule(edge=edge, events=events)


def _repair_blackouts(events: list[LinkEvent], cfg: CommConfig, t_end: float,
                      dt: float) -> None:
    """Force deliveries so a chain with gaps <= T_star covers [0, t_end].

    The chain is anchored at t = 0: the first delivery must arrive by T_star,
    and every following delivery must arrive within T_star of the previous
    chain send.  Consecutive chain arrivals are then never more than T_star
    apart, so every window of length T_star inside the horizon sees at least
    one delivery.

    events are in send order.  Delays are >= 0, so an event that arrives by
    the deadline was sent by it: each extension scans only the sends in
    (chain send, deadline].
    """
    if not events:
        return
    max_send = max(e.send_time for e in events)
    chain = -1                      # index of the last chain event
    deadline = cfg.T_star
    while chain < 0 or events[chain].send_time < max_send:
        # Extend with the qualifying event of greatest send time: it
        # dominates every other choice for future extensions.
        best = None
        for i in range(chain + 1, len(events)):
            e = events[i]
            if e.send_time > deadline:
                break
            if e.delay != INF and e.arrival <= deadline:
                best = i
        if best is None:
            # Force the earliest following event through, its delay capped
            # so the chain constraint holds.
            best = chain + 1
            forced = events[best]
            delay = min(cfg.delay_max, deadline - forced.send_time)
            forced.delay = math.floor(delay / dt + 1e-9) * dt
        chain = best
        deadline = events[chain].send_time + cfg.T_star


def verify_blackout_bound(sched: LinkSchedule, T_star: float) -> bool:
    """Does a delivered subsequence cover the schedule with bounded blackouts?

    True iff there is a chain of delivered events whose first arrival is within
    T_star of t = 0, whose consecutive arrival-to-previous-send gaps are all
    <= T_star, and whose last element is the final scheduled send.  Chaining is
    greedy: always extend with the qualifying event of greatest send time,
    which dominates every alternative.
    """
    events = sched.events
    if not events:
        return True
    delivered = [e for e in events if e.delay != INF]
    if not delivered:
        return False
    max_send = max(e.send_time for e in events)
    chain_send = None
    deadline = T_star
    while chain_send is None or chain_send < max_send:
        candidates = [e for e in delivered
                      if (chain_send is None or e.send_time > chain_send)
                      and e.arrival <= deadline + 1e-12]
        if not candidates:
            # A trailing stretch of undelivered sends shorter than T_star
            # cannot witness a blackout violation on a finite horizon.
            return max_send <= deadline + 1e-12
        chain_send = max(c.send_time for c in candidates)
        deadline = chain_send + T_star
    return True


def export_schedule_csv(schedules: dict[tuple[int, int], LinkSchedule],
                        path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "seq", "send_time", "delay", "arrival_time"])
        for (j, i), sched in sorted(schedules.items()):
            for ev in sched.events:
                delay = "inf" if ev.delay == INF else repr(ev.delay)
                arrival = "inf" if ev.delay == INF else repr(ev.arrival)
                w.writerow([j, i, ev.seq, repr(ev.send_time), delay, arrival])
