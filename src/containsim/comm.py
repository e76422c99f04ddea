"""Sampled, delayed, lossy per-edge message transport, on integer ticks.

Each edge (j, i) transmits at every sample instant seq * T.  A transmission
is either dropped or delivered after a whole number of ticks of the
integration step dt; a repair pass then guarantees that consecutive
delivered messages are never further apart than the blackout bound T_star.
The repair and ``verify_blackout_bound`` compare integer ticks only, with
T_star and delay_max turned into whole ticks once; seconds are recomputed
(seq * T, ticks * dt) only for output.
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


@dataclass(eq=False)
class LinkSchedule:
    """One edge's messages, indexed by seq: message seq is sent at seq * T
    and, unless dropped, arrives delay[seq] ticks of dt later."""
    T: float                  # sampling period, seconds
    dt: float                 # tick, seconds
    delay: np.ndarray         # (n_sends,) int ticks, 0 where dropped
    delivered: np.ndarray     # (n_sends,) bool
    forced: np.ndarray        # (n_sends,) bool, delivered by the repair

    def seconds(self) -> tuple[np.ndarray, np.ndarray]:
        """Send times seq * T and delays ticks * dt, inf where dropped."""
        send = np.arange(len(self.delay)) * self.T
        return send, np.where(self.delivered, self.delay * self.dt, INF)

    @property
    def events(self) -> np.recarray:
        # Only the benchmark's tracer reads this (it counts sends and
        # deliveries), so it is built on demand and never stored.
        send, delay = self.seconds()
        return np.rec.fromarrays((np.arange(len(send)), send, delay),
                                 names="seq,send_time,delay")


def to_ticks(seconds, dt: float, what: str, error=ValueError) -> np.ndarray:
    """seconds / dt as whole ticks; raises error unless dt divides them."""
    x = np.asarray(seconds, dtype=float) / dt
    k = np.round(x)
    if not (np.abs(x - k) <= TICK_TOL).all():
        raise error(f"dt must divide {what}")
    return k.astype(int)


def floor_ticks(seconds: float, dt: float) -> int:
    """Whole ticks of dt in seconds, rounded down; a quotient within TICK_TOL
    below a whole number counts as it (0.3 / 0.01 = 29.999999999999996)."""
    return math.floor(seconds / dt + TICK_TOL)


def period_ticks(T: float, dt: float, t_end: float, error=ValueError) -> int:
    """Ticks of dt per sampling period T; raises error unless dt and the
    horizon t_end are positive and dt divides both T and t_end."""
    for key, val in (("sim.dt_seconds", dt), ("sim.t_end_seconds", t_end)):
        if not val > 0:
            raise error(f"{key} must be > 0, got {val!r}")
    to_ticks(t_end, dt, "sim.t_end_seconds", error)
    return int(to_ticks(T, dt, "the sampling period T", error))


def generate_schedule(edge: tuple[int, int], cfg: CommConfig, t_end: float,
                      dt: float) -> LinkSchedule:
    """Bernoulli drops + uniform delays on the kT grid, then a repair pass.

    Delays are rounded to whole ticks of dt, so every arrival lands on the
    integration grid; dt must divide T.  The repair pass walks an
    Assumption-2 chain: when no delivered message can arrive within T_star
    of the previous chain send, the earliest following message is forced
    through (delay capped so the chain constraint holds).
    """
    # Independent, reproducible stream per (seed, j, i).
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & 0xFFFFFFFFFFFFFFFF, edge[0], edge[1]]))
    n_sends = int(math.floor(t_end / cfg.T)) + 1
    delivered = rng.random(n_sends) >= cfg.drop_prob
    ticks = np.round(rng.uniform(0.0, cfg.delay_max, n_sends) / dt)
    sched = LinkSchedule(cfg.T, dt,
                         np.where(delivered, ticks.astype(int), 0),
                         delivered, np.zeros(n_sends, dtype=bool))
    _repair_blackouts(sched, cfg.T_star, cfg.delay_max)
    return sched


def _chain_gaps(sched: LinkSchedule, T_star: float):
    """The gaps of the greedy Assumption-2 chain over sched's messages.

    The chain is anchored at tick 0: the first delivery must arrive by
    T_star, and each next one within T_star of the previous chain send.  It
    is extended with the delivered message of greatest seq that arrives by
    the deadline, which dominates every other choice; delays are >= 0, so
    only the sends up to the deadline are read.  Where none arrives in
    time, this yields (seq, latest) for the next message seq, which must be
    forced through with a delay of at most latest ticks, and the chain goes
    on from it.  Every comparison is on integer ticks of sched.dt.
    """
    spT = int(to_ticks(sched.T, sched.dt, "the sampling period T"))
    t_star = floor_ticks(T_star, sched.dt)
    delay, ok = sched.delay.tolist(), sched.delivered.tolist()
    chain, deadline = -1, t_star
    while chain < len(delay) - 1:
        s = next((k for k in range(min(len(delay) - 1, deadline // spT),
                                   chain, -1)
                  if ok[k] and k * spT + delay[k] <= deadline), None)
        if s is None:
            s = chain + 1
            yield s, deadline - s * spT
        chain, deadline = s, s * spT + t_star


def _repair_blackouts(sched: LinkSchedule, T_star: float,
                      delay_max: float) -> None:
    """Force the gaps of the chain through, each delay capped at delay_max
    and at the gap's deadline: consecutive chain arrivals are then never
    more than T_star apart, so every window of length T_star inside the
    horizon sees at least one delivery."""
    d_max = floor_ticks(delay_max, sched.dt)
    for s, latest in _chain_gaps(sched, T_star):
        sched.delay[s] = min(d_max, latest)
        sched.delivered[s] = sched.forced[s] = True


def verify_blackout_bound(sched: LinkSchedule, T_star: float) -> bool:
    """Does a delivered subsequence cover the schedule with bounded blackouts?

    True iff there is a chain of delivered messages whose first arrival is
    within T_star of t = 0, whose consecutive arrival-to-previous-send gaps
    are all <= T_star, and whose last element is the final scheduled send:
    the greedy chain of ``_chain_gaps`` has no gap, except in a trailing
    stretch of undelivered sends shorter than T_star, which cannot witness
    a blackout violation on a finite horizon.
    """
    n = len(sched.delay)
    if not sched.delivered.any():
        return n == 0
    spT = int(to_ticks(sched.T, sched.dt, "the sampling period T"))
    return all((n - 1 - s) * spT <= latest
               for s, latest in _chain_gaps(sched, T_star))


def export_schedule_csv(schedules: dict[tuple[int, int], LinkSchedule],
                        path: str) -> None:
    """One row per message of every edge, in edge then seq order; times in
    seconds as their repr, inf for a dropped message."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "seq", "send_time", "delay", "arrival_time"])
        for (j, i), sched in sorted(schedules.items()):
            send, delay = sched.seconds()
            w.writerows([j, i, seq, repr(s), repr(d), repr(a)]
                        for seq, (s, d, a) in enumerate(zip(
                            send.tolist(), delay.tolist(),
                            (send + delay).tolist())))
