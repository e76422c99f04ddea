"""The sources of a sampling period, built at its first tick.

Sends are periodic, so every message in use during a period was sent by
its first tick k0: ``Engine.run`` views them all there, and the law's
``block`` (or the cascade's) turns that view into one row of step
sources per tick, warm-up ticks and K included.  The rows must read
nothing recorded after k0, and must equal, bit for bit, the sources built
from the view of each tick: the per-view stage forms kept here as the
oracle.
"""
import contextlib
import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import analysis, config, sim
from containsim.comm import CommConfig
from containsim.control import OscillatorLaw
from containsim.engine import Engine
from conftest import load_scenario_doc, rk4

# (scenario, controllers settings): the six variants, both psi modes of
# the double integrators, and the cascade.
CASES = [("benchmark_fullstate", {"psi_mode": "static"}),
         ("benchmark_fullstate", {"psi_mode": "dynamic"}),
         ("benchmark_outputfb", {"psi_mode": "dynamic"}),
         ("benchmark_fullstate", {"variant": "known_vd", "v_d": [0.5, 0.2],
                                  "use_velocity": False,
                                  "gains": {"k_p": 4.0, "k_d": 4.0}}),
         ("oscillator_harmonic", {}),
         ("oscillator_harmonic", {"variant": "oscillator_output"}),
         ("benchmark_nonlinear", {}),
         ("cascade_estimates", None)]
IDS = ["full_state", "full_state-dynamic", "output_feedback-dynamic",
       "known_vd", "oscillator_full", "oscillator_output", "nonlinear_vs",
       "cascade"]


def stage_psi(view, h: int, flow) -> np.ndarray:
    """psi at the half ticks h to h + 2 of a one-tick view, (3, 2, m, N),
    from one stacked matmul and one average, a waiting follower's psi its
    fallback position and 0: the view's stage_psi that the oscillator
    law's step read before the period block."""
    half = np.arange(h, h + 3)
    y = np.matmul(flow.table[half - view.send_half[:, None]],
                  view.msg[:, None, :, None])         # (E, 3, 2N, 1)
    avg = view._live_average(y.reshape(len(y), 6 * view.N))
    psi = np.zeros((3, 2, view.m, view.N))
    psi[:, 0] = view.p_fallback
    psi[:, :, view.live] = avg.reshape(len(avg), 3, 2, view.N).transpose(
        1, 2, 0, 3)
    return psi


def sources_oracle(block, k: int, view) -> np.ndarray:
    """Step k's sources from the view of tick k in the block's layout:
    psi's stage_psi for the oscillator; for the double integrators the
    stacked vartheta_avg at the three stage times, vhat_avg held and the
    leader rows, one stage after the other; for the cascade p_avg held,
    then the stage's signals from the run's table sig."""
    law = getattr(block, "__self__", None)
    if law is None:
        sig = inspect.getclosurevars(block).nonlocals["sig"]
        return np.concatenate([np.r_[view.p_avg().ravel(), s.ravel()]
                               for s in sig[k]])
    if isinstance(law, OscillatorLaw):
        return stage_psi(view, 2 * k, law.flow).ravel()
    theta = view.vartheta_avg(law.times[k][:, None])
    return np.concatenate([np.r_[th.ravel(), view.vhat_avg().ravel(), lead]
                           for th, lead in zip(theta, law.leaders[k])])


class Cut(Exception):
    pass


def recorded_run(name: str, settings_, comm=None, t_end=None, cut=False):
    """The case's run, with the engine, the block callable and the state
    history Engine.run used; comm (a CommConfig, or the bundled one's
    seed) and t_end replace the bundled ones.  With cut, the run stops as
    Engine.run starts, and the history is the initial state's shape."""
    doc = load_scenario_doc(name)
    if t_end is not None:
        doc["sim"]["t_end_seconds"] = t_end
    if isinstance(comm, int):
        doc["comm"]["seed"], comm = comm, None
    got, run = [], Engine.run

    def spy(self, y, step, watch, block):
        if cut:
            got.append((self, block, (self.K + 1,) + y.shape))
            raise Cut
        states, outs = run(self, y, step, watch, block)
        got.append((self, block, states))
        return states, outs
    with mock.patch.object(Engine, "run", spy), pytest.raises(Cut) if cut \
            else contextlib.nullcontext():
        if settings_ is None:
            cas = config.build_cascade(doc)
            analysis.simulate_cascade(cas if comm is None else
                                      dataclasses.replace(cas, comm=comm))
        else:
            doc["controllers"].update(settings_)
            scen = config.build_scenario(doc)
            sim.run(scen if comm is None else
                    dataclasses.replace(scen, comm=comm))
    return got[0]


def periods(eng) -> list:
    """(k0, hi) of every period: its ticks k0..hi - 1, up to K."""
    spT = eng.steps_per_T
    return [(k0, min(k0 + spT, eng.K + 1)) for k0 in range(0, eng.K + 1, spT)]


def random_comm(dt, spT, extra, drop_prob, delay_frac, seed) -> CommConfig:
    """Period spT ticks, T* = spT + extra ticks, delays from 0 up to
    delay_frac T* (at most 3 T*)."""
    t_star = (spT + extra) * dt
    return CommConfig(T=spT * dt, T_star=t_star, drop_prob=drop_prob,
                      delay_max=delay_frac * t_star, seed=seed)


COMMS = (st.integers(10, 30), st.integers(0, 60), st.floats(0.0, 0.95),
         st.floats(0.0, 3.0), st.integers(0, 2**31))


def assert_blocks_equal_the_oracle(eng, block, states):
    """Every row of every period's block equals the oracle on the view of
    its tick, to the bit."""
    for lo, hi in periods(eng):
        rows = block(lo, eng.view(lo, hi, states))
        assert len(rows) == hi - lo
        for k in range(lo, hi):
            view = eng.view(k, k + 1, states)
            assert np.array_equal(np.ravel(rows[k - lo]),
                                  np.ravel(sources_oracle(block, k, view)))


@pytest.mark.parametrize("name, settings_", CASES, ids=IDS)
@settings(max_examples=12, deadline=None)
@given(*COMMS)
def test_block_rows_equal_the_per_view_sources(name, settings_, spT, extra,
                                               drop_prob, delay_frac, seed):
    dt = 0.025 if settings_ is None else 0.01
    eng, block, states = recorded_run(
        name, settings_, random_comm(dt, spT, extra, drop_prob, delay_frac,
                                     seed), 120 * dt + 5 * dt)
    assert_blocks_equal_the_oracle(eng, block, states)


@pytest.mark.parametrize("name, settings_", CASES, ids=IDS)
def test_block_rows_at_the_edges_of_the_run(name, settings_):
    # The bundled comm at seed 3, 605 ticks: a first period with no
    # message, a period that straddles the first tick at which every
    # follower holds a message, periods with several mailbox changes, and
    # a partial last period whose last tick is K.
    eng, block, states = recorded_run(
        name, settings_, 3, 6.05 if settings_ is not None else 15.125)
    K, spT, used = eng.K, eng.steps_per_T, eng.used_seq
    spans = periods(eng)
    assert (used[0] < 0).all() and 0 < eng.first.max() % spT
    changes = [np.any(used[lo + 1:hi] != used[lo:hi - 1], axis=1).sum()
               for lo, hi in spans]
    assert max(changes) >= 2
    k0, hi = spans[-1]
    assert k0 == K - K % spT and 1 < K - k0 < spT - 1 and hi == K + 1
    assert_blocks_equal_the_oracle(eng, block, states)


@pytest.mark.parametrize("name, settings_", CASES, ids=IDS)
@settings(max_examples=12, deadline=None)
@given(*COMMS)
def test_block_reads_only_recorded_rows(name, settings_, spT, extra,
                                        drop_prob, delay_frac, seed):
    # On a random state history with every row after the period's first
    # tick k0 set to NaN, each block is finite and equals the block of the
    # whole history: with periodic sends, no message in use during a
    # period was sent after k0, even at delay 0.
    dt = 0.025 if settings_ is None else 0.01
    eng, block, shape = recorded_run(
        name, settings_, random_comm(dt, spT, extra, drop_prob, delay_frac,
                                     seed), 120 * dt + 5 * dt, cut=True)
    states = np.random.default_rng(seed).normal(size=shape)
    for k0, hi in periods(eng):
        poisoned = states.copy()
        poisoned[k0 + 1:] = np.nan
        rows = np.asarray(block(k0, eng.view(k0, hi, poisoned)))
        assert np.isfinite(rows).all()
        assert np.array_equal(rows, block(k0, eng.view(k0, hi, states)))


@settings(max_examples=12, deadline=None)
@given(*COMMS)
def test_nonlinear_step_on_a_block_row_equals_its_step_on_the_view(
        spT, extra, drop_prob, delay_frac, seed):
    # nonlinear_vs has no step operator: on a block row it runs RK4 over
    # deriv on the row's three stage slices, which must give, bit for bit,
    # RK4 over deriv on the sources of the view of the tick, warm-up ticks
    # included, and the state the run recorded.
    eng, block, states = recorded_run(
        "benchmark_nonlinear", {}, random_comm(0.01, spT, extra, drop_prob,
                                               delay_frac, seed), 1.25)
    law = block.__self__
    on_view = rk4(lambda ks, y, u: law.deriv(ks[0], y, u[ks[1]]), eng.dt)
    for lo, hi in periods(eng):
        rows = block(lo, eng.view(lo, hi, states))
        for k in range(lo, hi):
            u = sources_oracle(block, k, eng.view(k, k + 1, states))
            (y, gamma), (y_view, gamma_view) = (
                law.step(k, states[k], rows[k - lo]),
                on_view(k, states[k], u.reshape(3, -1)))
            assert np.array_equal(y, y_view)
            assert np.array_equal(gamma, gamma_view)
            assert k == eng.K or np.array_equal(y, states[k + 1])
