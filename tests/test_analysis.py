
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import analysis
from containsim.analysis import (
    BATCH_FIELDS,
    ISS_REL_TOL,
    CascadeConfig,
    CascadeError,
    CascadeTrace,
    Perturbation,
    containment_certificate,
    iss_estimate_check,
    make_pair_grid,
    run_blackout_sweep,
    run_gain_sweep,
    run_sweeps,
    simulate_cascade,
    simulate_cascades,
)
from containsim.comm import CommConfig, generate_schedule
from containsim.engine import DivergenceError, Engine, stage_times
from containsim.topology import DirectedTopology, containment_weights, \
    partition
from conftest import bench_topology, run_on_views, seeded

TRACE_FIELDS = ("eta", "zeta", "eps", "eta_c", "deta_c", "phi1_vals",
                "phi2_vals")


def simulate_cascade_oracle(cfg: CascadeConfig, seed: int | None = None,
                            schedules=None) -> CascadeTrace:
    """One cascade run, classical RK4 over the equations written out per
    layer, every exogenous signal evaluated per stage: the reference the
    step operator of simulate_cascades must match."""
    cfg.validate()
    topo = cfg.topo
    m, N = topo.m, cfg.N
    W = containment_weights(partition(topo))
    comm = cfg.comm if seed is None else dataclasses.replace(cfg.comm,
                                                             seed=seed)
    if schedules is None:
        schedules = {edge: generate_schedule(edge, comm, cfg.t_end, cfg.dt)
                     for edge in topo.edges()}
    eng = Engine(topo, [schedules], comm.T, cfg.dt, cfg.t_end,
                 np.arange(topo.n)[:, None], CascadeError)
    K = eng.K
    times = stage_times(K, cfg.dt).tolist()
    h = np.asarray(cfg.h, float)
    phi2 = cfg.phi2 or [Perturbation() for _ in range(cfg.sigma)]

    def broadcast(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(N)
        out[:] = vec if vec.shape[0] == N else vec[0]
        return out

    def drives(t: float) -> np.ndarray:
        return np.stack([broadcast(d.value(t)) for d in cfg.leader_drive])

    # eta's n rows, then zeta's m * sigma rows, as the engine's one state.
    def split(y):
        return y[:topo.n], y[topo.n:].reshape(m, cfg.sigma, N)

    def rhs(stage, y, view):
        t = times[stage[0]][stage[1]]
        eps = view.p_avg()
        eta_s, zeta_s = split(y)
        phi1_v = broadcast(cfg.phi1.value(t))
        delta = cfg.alpha * zeta_s[:, 0] + (1.0 - cfg.alpha) * eps
        deta = np.empty_like(eta_s)
        deta[:m] = -cfg.k_eta * (eta_s[:m] - delta) + phi1_v
        deta[m:] = drives(t)
        dzeta = np.empty_like(zeta_s)
        for ell in range(cfg.sigma):
            feed = zeta_s[:, ell + 1] if ell + 1 < cfg.sigma else eps
            dzeta[:, ell] = -h[ell] * (zeta_s[:, ell] - feed) \
                + broadcast(phi2[ell].value(t))
        return np.concatenate([deta, dzeta.reshape(-1, N)]), eps

    states, tr_eps = run_on_views(
        eng, np.concatenate([cfg.eta0, cfg.zeta0.reshape(-1, N)]), rhs,
        (("eta", topo.n, 1), ("zeta", m, cfg.sigma)))
    tr_eta, tr_zeta = states[:, :topo.n], states[:, topo.n:].reshape(
        K + 1, m, cfg.sigma, N)
    # The leader combination and the signals, step by step.
    tr_eta_c = np.empty((K + 1, m, N))
    tr_deta_c = np.empty((K + 1, m, N))
    tr_phi1 = np.empty((K + 1, m, N))
    tr_phi2 = np.empty((K + 1, m, cfg.sigma, N))
    for k in range(K + 1):
        t = k * cfg.dt
        tr_eta_c[k] = W @ tr_eta[k, m:]
        tr_deta_c[k] = W @ drives(t)
        tr_phi1[k] = broadcast(cfg.phi1.value(t))
        for ell in range(cfg.sigma):
            tr_phi2[k, :, ell] = broadcast(phi2[ell].value(t))
    return CascadeTrace(times=np.arange(K + 1) * cfg.dt, eta=tr_eta,
                        zeta=tr_zeta, eps=tr_eps, eta_c=tr_eta_c,
                        deta_c=tr_deta_c, phi1_vals=tr_phi1,
                        phi2_vals=tr_phi2, cfg=cfg)


def iss_estimate_check_oracle(trace: CascadeTrace, pairs=None,
                              rel_tol: float = ISS_REL_TOL,
                              eta_override=None) -> dict:
    """iss_estimate_check one pair and one chain layer at a time: the
    reference the grouped running-sup check must equal."""
    cfg = trace.cfg
    if pairs is None:
        pairs = make_pair_grid(trace.times)
    eta_t = eta_override if eta_override is not None else trace.eta_tilde()
    n_eta = np.linalg.norm(eta_t, axis=2)
    n_zeta = np.linalg.norm(trace.zeta_tilde(), axis=3)
    n_u = np.linalg.norm(trace.u(), axis=2)
    n_y = np.linalg.norm(trace.y_pert(), axis=2)
    n_ups = np.linalg.norm(trace.ups_pert(), axis=3)
    h = np.asarray(cfg.h, float)
    checked = violations = 0
    worst = -np.inf
    for i0, i1 in pairs:
        gap = trace.times[i1] - trace.times[i0]
        sl = slice(i0, i1 + 1)
        sup_u = np.max(n_u[sl], axis=0)
        sup_y = np.max(n_y[sl], axis=0)
        sup_z = np.max(n_zeta[sl], axis=0)
        sup_ups = np.max(n_ups[sl], axis=0)
        bound = np.exp(-cfg.k_eta * gap) * n_eta[i0] \
            + cfg.alpha * sup_z[:, 0] + (1.0 - cfg.alpha) * sup_u \
            + sup_y / cfg.k_eta
        margins = [(n_eta[i1], bound)]
        for ell in range(cfg.sigma):
            feed = sup_z[:, ell + 1] if ell + 1 < cfg.sigma else sup_u
            margins.append((n_zeta[i1, :, ell],
                            np.exp(-h[ell] * gap) * n_zeta[i0, :, ell]
                            + feed + sup_ups[:, ell] / h[ell]))
        for dev, b in margins:
            margin = dev - b - rel_tol * (1.0 + b)
            checked += margin.size
            violations += int(np.count_nonzero(margin > 0))
            worst = max(worst, float(np.max(margin)))
    return {"pairs": len(pairs), "checked": checked,
            "violations": violations, "worst_margin": worst}


def perturbation_value_oracle(p: Perturbation, t: float) -> np.ndarray:
    """Perturbation.value for one time, as it was before tabulation."""
    a = p.amplitude
    if p.kind == "zero":
        return np.zeros_like(a)
    if p.kind == "constant":
        return a.copy()
    if p.kind == "sinusoid":
        return a * np.sin(p.omega * t + p.phase)
    return a * np.exp(-p.rate * t)


def perfect_comm(T=0.05):
    return CommConfig(T=T, T_star=1.5, drop_prob=0.0, delay_max=0.0, seed=0)


def single_follower_cfg(**kw):
    w = np.zeros((2, 2))
    w[0, 1] = 1.0
    topo = DirectedTopology(n=2, m=1, weights=w)
    base = dict(
        topo=topo, N=1, alpha=0.0, sigma=1, k_eta=1.0, h=(2.0,),
        comm=perfect_comm(), dt=0.005, t_end=10.0,
        eta0=np.array([[3.0], [0.0]]),
        zeta0=np.zeros((1, 1, 1)),
        leader_drive=[Perturbation()],
        phi1=Perturbation(), phi2=[Perturbation()])
    base.update(kw)
    return CascadeConfig(**base)


def bench_cfg(**kw):
    topo = bench_topology()
    rng = np.random.default_rng(0)
    base = dict(
        topo=topo, N=2, alpha=0.5, sigma=2, k_eta=1.0, h=(2.0, 2.0),
        comm=CommConfig(T=0.25, T_star=1.5, drop_prob=0.85, delay_max=0.4,
                        seed=0),
        dt=0.025, t_end=40.0,
        eta0=rng.normal(size=(10, 2)) * 2.0,
        zeta0=np.zeros((6, 2, 2)),
        leader_drive=[Perturbation(kind="sinusoid",
                                   amplitude=[0.5, 0.3], omega=0.5,
                                   phase=float(k)) for k in range(4)],
        phi1=Perturbation(kind="sinusoid", amplitude=[0.2, 0.1], omega=0.3),
        phi2=[Perturbation(kind="sinusoid", amplitude=[0.1, 0.2], omega=0.4),
              Perturbation(kind="sinusoid", amplitude=[0.15, -0.1],
                           omega=0.4)])
    base.update(kw)
    if "sigma" in kw and "h" not in kw:
        base["h"] = tuple([2.0] * kw["sigma"])
    if "sigma" in kw:
        base["zeta0"] = np.zeros((6, kw["sigma"], 2))
        if "phi2" not in kw:
            base["phi2"] = [Perturbation() for _ in range(kw["sigma"])]
    return CascadeConfig(**base)


class TestPerturbation:
    def test_values(self):
        p = Perturbation(kind="sinusoid", amplitude=[2.0], omega=3.0,
                         phase=0.5)
        assert np.allclose(p.value(1.0), 2.0 * np.sin(3.5))
        d = Perturbation(kind="decaying_exp", amplitude=[4.0], rate=0.25)
        assert np.allclose(d.value(8.0), 4.0 * np.exp(-2.0))
        assert np.allclose(Perturbation(kind="constant",
                                        amplitude=[1.5]).value(99.0), 1.5)

    def test_unknown_kind(self):
        with pytest.raises(CascadeError):
            Perturbation(kind="brownian")

    @pytest.mark.parametrize("p", [
        Perturbation(), Perturbation(amplitude=[1.0, 2.0]),
        Perturbation(kind="constant", amplitude=1.5),
        Perturbation(kind="constant", amplitude=[1.5, -2.0]),
        Perturbation(kind="sinusoid", amplitude=0.7, omega=1.3, phase=0.4),
        Perturbation(kind="sinusoid", amplitude=[0.7, -0.2], omega=1.3,
                     phase=0.4),
        Perturbation(kind="decaying_exp", amplitude=2.0, rate=0.3),
        Perturbation(kind="decaying_exp", amplitude=[2.0, 0.5], rate=0.3),
    ], ids=lambda p: f"{p.kind}-{p.amplitude.size}")
    def test_table_equals_value_at_every_stage_time(self, p):
        times = stage_times(2400, 0.025)
        table = p.value(times)
        assert table.shape == times.shape + p.amplitude.shape
        for t, row in zip(times.ravel().tolist(),
                          table.reshape((-1,) + p.amplitude.shape)):
            assert np.array_equal(row, perturbation_value_oracle(p, t))
            assert np.array_equal(row, p.value(t))

    def test_stage_times_are_the_times_rhs_sees(self):
        # rhs sees the stages of stage_times' row k: step k starts at
        # stage 0, its midpoint (RK4's stages 2 and 3) is stage 1 and its
        # end stage 2, at k * dt + dt / 2 and k * dt + dt, tick K too.  On
        # this grid k*dt + dt differs from (k+1)*dt at 645 of 2400 ticks.
        cfg = single_follower_cfg(dt=0.025, t_end=60.0)
        sched = generate_schedule((1, 0), cfg.comm, cfg.t_end, cfg.dt)
        eng = Engine(cfg.topo, [{(1, 0): sched}], cfg.comm.T, cfg.dt,
                     cfg.t_end, np.arange(2)[:, None])
        seen = []

        def rhs(stage, y, u):
            seen.append(stage)
            return np.zeros_like(y), 0.0

        K = eng.K
        run_on_views(eng, cfg.eta0, rhs)
        assert seen == [(k, s) for k in range(K + 1) for s in (0, 1, 1, 2)]
        times = stage_times(K, cfg.dt).tolist()
        assert [times[k][s] for k, s in seen] == [
            t for t in (k * cfg.dt for k in range(K + 1))
            for t in (t, t + cfg.dt / 2, t + cfg.dt / 2, t + cfg.dt)]
        assert times[K][0] == K * cfg.dt
        assert sum(times[k][2] != (k + 1) * cfg.dt
                   for k in range(K)) == 645


class TestCascadeDynamics:
    def test_pure_exponential_decay(self):
        # Stationary leader, no perturbation, alpha = 0, perfect fast comm:
        # the sampled average equals the leader value, so the follower decays
        # exactly like e^{-k_eta t} toward it.
        cfg = single_follower_cfg()
        tr = simulate_cascade(cfg)
        expected = 3.0 * np.exp(-cfg.k_eta * tr.times)
        assert np.max(np.abs(tr.eta_tilde()[:, 0, 0] - expected)) < 1e-9

    def test_chain_filters_converge(self):
        cfg = single_follower_cfg(alpha=1.0, sigma=3, h=(1.0, 2.0, 3.0),
                                  zeta0=np.ones((1, 3, 1)) * 5.0,
                                  phi2=[Perturbation()] * 3, t_end=30.0)
        tr = simulate_cascade(cfg)
        assert np.max(np.abs(tr.zeta_tilde()[-1])) < 1e-8
        assert np.max(np.abs(tr.eta_tilde()[-1])) < 1e-8

    def test_constant_phi1_offset(self):
        # With a constant perturbation c on the follower and alpha = 0, the
        # steady state is eta_c + c / k_eta exactly.
        cfg = single_follower_cfg(
            k_eta=2.0, phi1=Perturbation(kind="constant", amplitude=[1.0]),
            t_end=20.0)
        tr = simulate_cascade(cfg)
        assert tr.eta_tilde()[-1, 0, 0] == pytest.approx(0.5, abs=1e-8)

    def test_leader_drive_integrates(self):
        cfg = single_follower_cfg(
            leader_drive=[Perturbation(kind="constant", amplitude=[0.5])])
        tr = simulate_cascade(cfg)
        assert tr.eta[-1, 1, 0] == pytest.approx(0.5 * 10.0, abs=1e-9)
        assert np.allclose(tr.deta_c[-1], 0.5)

    def test_validation_errors(self):
        with pytest.raises(CascadeError):
            single_follower_cfg(alpha=1.5).validate()
        with pytest.raises(CascadeError):
            single_follower_cfg(h=(1.0, 2.0)).validate()
        with pytest.raises(CascadeError):
            single_follower_cfg(k_eta=-1.0).validate()
        with pytest.raises(CascadeError):
            simulate_cascade(single_follower_cfg(dt=0.003))

    @pytest.mark.parametrize("key, change", [
        ("cascade.alpha", {"alpha": 1.5}),
        ("cascade.h", {"h": (1.0, 2.0)}),
        ("cascade.k_eta", {"k_eta": -1.0}),
        ("cascade.h", {"h": (0.0,)}),
        ("cascade.leader_drive", {"leader_drive": []}),
        ("cascade.phi2", {"phi2": [Perturbation(), Perturbation()]}),
        ("cascade.initial.eta", {"eta0": np.zeros((2, 2))}),
        ("cascade.initial.zeta", {"zeta0": np.zeros((1, 2, 1))}),
        ("sim.t_end_seconds", {"t_end": 10.0025}),
        # Amplitudes of 1 or N = 1 entries only; a longer one was cut.
        ("cascade.phi1", {"phi1": Perturbation(amplitude=[1.0, 2.0])}),
        ("cascade.phi2[0]", {"phi2": [Perturbation(amplitude=[1.0, 2.0])]}),
        ("cascade.leader_drive[0]",
         {"leader_drive": [Perturbation(kind="constant",
                                        amplitude=[1.0, 2.0])]}),
    ])
    def test_validation_errors_name_the_config_key(self, key, change):
        with pytest.raises(CascadeError, match=re.escape(key)):
            single_follower_cfg(**change).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, key", [("eta0", "cascade.initial.eta"),
                                            ("zeta0", "cascade.initial.zeta")])
    def test_non_finite_initial_states_name_the_array(self, field, key,
                                                      value):
        # Caught by the config check, not as a DivergenceError at t = dt.
        cfg = bench_cfg()
        x = getattr(cfg, field).copy()
        x.flat[-1] = value
        with pytest.raises(CascadeError, match=re.escape(
                f"{key}: {field} must be finite")):
            simulate_cascade(dataclasses.replace(cfg, **{field: x}))

    @pytest.mark.parametrize("key, change", [
        ("cascade.k_eta", {"k_eta": float("nan")}),
        ("cascade.h", {"h": (2.0, float("nan"))}),
        ("cascade.h", {"h": (float("nan"), 2.0)}),
    ])
    def test_nan_rates_name_the_config_key(self, key, change):
        # A NaN passes every "<= 0" test; caught by the config check, it
        # no longer reaches the run, which diverged at its first step.
        cfg = dataclasses.replace(bench_cfg(), **change)
        with pytest.raises(CascadeError, match=re.escape(
                f"{key}: all rates must be strictly positive")):
            cfg.validate()
        with pytest.raises(CascadeError, match=re.escape(key)):
            simulate_cascade(cfg)

    @pytest.mark.parametrize("value", [0.0, -0.025])
    @pytest.mark.parametrize("field, key", [("dt", "sim.dt_seconds"),
                                            ("t_end", "sim.t_end_seconds")])
    def test_step_and_horizon_must_be_positive(self, field, key, value):
        with pytest.raises(CascadeError, match=f"{key} must be > 0"):
            single_follower_cfg(**{field: value}).validate()

    @pytest.mark.parametrize("variable, gains", [
        ("eta", {"k_eta": 5000.0}),
        ("zeta", {"h": (5000.0,), "zeta0": np.ones((1, 1, 1))}),
    ])
    def test_divergence_names_agent_and_variable(self, variable, gains):
        # A rate of 5000 with dt = 0.005 is far outside RK4's stable region.
        with pytest.raises(DivergenceError) as exc:
            simulate_cascade(single_follower_cfg(**gains))
        err = exc.value
        assert (err.agent, err.variable) == (0, variable)
        # last_norm is the agent's row one step earlier, the last in range.
        tr = simulate_cascade(single_follower_cfg(t_end=err.t - 0.005,
                                                  **gains))
        last = getattr(tr, variable)[-1, 0]
        assert np.all(np.abs(last) <= 1e9)
        assert err.last_norm == np.linalg.norm(last)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_injected_schedules_must_match_the_edges(self, change):
        cfg = bench_cfg(t_end=1.0)
        schedules = {edge: generate_schedule(edge, cfg.comm, cfg.t_end,
                                             cfg.dt)
                     for edge in cfg.topo.edges()}
        if change == "missing":
            del schedules[(2, 0)]
            named = "missing edges [(2, 0)], extra edges []"
        else:
            schedules[(0, 5)] = schedules[(2, 0)]
            named = "missing edges [], extra edges [(0, 5)]"
        with pytest.raises(CascadeError, match=re.escape(named)):
            simulate_cascade(cfg, schedules=schedules)

    def test_determinism(self):
        cfg = bench_cfg(t_end=5.0)
        a = simulate_cascade(seeded(cfg, 1))
        b = simulate_cascade(seeded(cfg, 1))
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.zeta, b.zeta)


def mixed_signals(sigma: int) -> dict:
    """Every kind of signal, with scalar and vector amplitudes, phi2 for
    sigma layers."""
    layers = [Perturbation(kind="sinusoid", amplitude=-0.5, omega=0.7),
              Perturbation(kind="constant", amplitude=[0.1, 0.2]),
              Perturbation(kind="decaying_exp", amplitude=[0.3, -0.1],
                           rate=0.2)]
    return dict(
        leader_drive=[Perturbation(kind="constant", amplitude=0.2),
                      Perturbation(kind="sinusoid", amplitude=[-0.1, -0.4],
                                   omega=2.0),
                      Perturbation(kind="decaying_exp", amplitude=[1.0, 2.0],
                                   rate=0.5),
                      Perturbation()],
        phi1=Perturbation(kind="decaying_exp", amplitude=0.3, rate=0.1),
        phi2=[layers[ell % 3] for ell in range(sigma)])


def assert_bits_equal(got, want, name=""):
    """Equal to the bit: unlike np.array_equal, -0.0 differs from 0.0."""
    got, want = (np.ascontiguousarray(a, dtype=np.float64)
                 for a in (got, want))
    assert got.shape == want.shape, name
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def assert_traces_bits_equal(tr, ref):
    for name in TRACE_FIELDS:
        assert_bits_equal(getattr(tr, name), getattr(ref, name), name)


# k_eta and h multipliers, T*, delay_max / T*, drop probability, comm seed.
COPY = st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0),
                 st.floats(0.25, 2.0), st.floats(0.0, 0.95),
                 st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
# The blend: each end of [0, 1], or inside it.
ALPHA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _other_topology():
    w = bench_topology().weights.copy()
    w[0, 8] = 1.0
    return DirectedTopology(n=10, m=6, weights=w)


# One change per field the copies of a batch must share.
SHARED_FIELD_CHANGES = {
    "topo": lambda: {"topo": _other_topology()},
    "N": lambda: {"N": 1, "eta0": np.zeros((10, 1)),
                  "zeta0": np.zeros((6, 2, 1)),
                  "leader_drive": [Perturbation()] * 4,
                  "phi1": Perturbation(), "phi2": [Perturbation()] * 2},
    "alpha": lambda: {"alpha": 0.25},
    "sigma": lambda: {"sigma": 1, "h": (2.0,), "zeta0": np.zeros((6, 1, 2)),
                      "phi2": [Perturbation()]},
    "dt": lambda: {"dt": 0.0125},
    "t_end": lambda: {"t_end": 1.0},
    "leader_drive": lambda: {"leader_drive": [Perturbation()] * 4},
    "phi1": lambda: {"phi1": Perturbation()},
    "phi2": lambda: {"phi2": [Perturbation(), Perturbation()]},
    "comm.T": lambda: {"comm": CommConfig(T=0.125, T_star=1.5,
                                          drop_prob=0.85, delay_max=0.4)},
}


class TestBatch:
    @staticmethod
    def copies(base, copies, seed):
        rng = np.random.default_rng(seed)
        return [dict(
            k_eta=base.k_eta * gk, h=tuple(r * gh for r in base.h),
            comm=CommConfig(T=0.25, T_star=ts, drop_prob=drop,
                            delay_max=frac * ts, seed=comm_seed),
            eta0=rng.normal(size=(10, 2)),
            zeta0=rng.normal(size=(6, base.sigma, 2)))
            for gk, gh, ts, frac, drop, comm_seed in copies]

    # The step operator sums each step in another order than the oracle's
    # four stages do.  A pilot of 200 draws from these strategies (numpy
    # seeds 1000-1199, so other draws than the test's) gave at most 2.0e-14
    # times a field's largest magnitude.
    ORACLE_TOL = 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.lists(COPY, min_size=1, max_size=4), st.booleans(), ALPHA,
           st.integers(1, 3), st.integers(0, 2**31))
    def test_every_copy_equals_the_oracle(self, copies, mixed, alpha, sigma,
                                          seed):
        # Within ORACLE_TOL of the oracle, and to the bit the copy run alone.
        base = bench_cfg(t_end=3.0, alpha=alpha, sigma=sigma,
                         **(mixed_signals(sigma) if mixed else {}))
        changes = self.copies(base, copies, seed)
        for change, tr in zip(changes, simulate_cascades(base, changes)):
            cfg = dataclasses.replace(base, **change)
            assert_traces_bits_equal(tr, simulate_cascade(cfg))
            ref = simulate_cascade_oracle(cfg)
            for name in TRACE_FIELDS:
                got, want = getattr(tr, name), getattr(ref, name)
                assert np.abs(got - want).max() <= \
                    self.ORACLE_TOL * np.abs(want).max(), name

    def test_a_step_reads_the_signal_rows_of_its_stages(self):
        # A leader's eta' is its drive d alone, so step k moves it by
        # dt / 6 (d0 + 4 dm + d1), the drive at the stages of row k of
        # stage_times.  Reading any of them one tick off moves a leader by
        # about dt^2 / 6 |d'| ~ 1e-4 in some step.
        base = bench_cfg(t_end=3.0, **mixed_signals(2))
        changes = self.copies(base, [(1.0, 1.0, 1.5, 0.3, 0.85, 0),
                                     (2.0, 0.5, 0.5, 0.9, 0.5, 1)], 7)
        dt, m, N = base.dt, base.topo.m, base.N
        K = round(base.t_end / dt)
        times = stage_times(K, dt)
        d = np.stack([np.broadcast_to(p.value(times), times.shape + (N,))
                      for p in base.leader_drive], axis=2)
        want = dt / 6 * (d[:K, 0] + 4 * d[:K, 1] + d[:K, 2])
        for tr in simulate_cascades(base, changes):
            lead = tr.eta[:, m:]
            assert np.abs(np.diff(lead, axis=0) - want).max() <= \
                1e-13 * np.abs(lead).max()

    def test_one_change_per_shared_field(self):
        shared = {f.name for f in dataclasses.fields(CascadeConfig)} \
            - set(BATCH_FIELDS) | {"comm.T"}
        assert set(SHARED_FIELD_CHANGES) == shared

    @pytest.mark.parametrize("name", list(SHARED_FIELD_CHANGES))
    def test_copies_must_share_the_field(self, name):
        base = bench_cfg(t_end=2.0)
        change = SHARED_FIELD_CHANGES[name]()
        dataclasses.replace(base, **change).validate()
        with pytest.raises(CascadeError,
                           match=re.escape(f"cascade batch: {name} differs")):
            simulate_cascades(base, [{}, change])

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(CascadeConfig)
        if f.name not in BATCH_FIELDS])
    def test_a_copy_may_not_name_a_shared_field(self, name):
        # Even at the base's own value: a copy lists what it changes.
        base = bench_cfg(t_end=2.0)
        with pytest.raises(CascadeError,
                           match=re.escape(f"cascade batch: {name} differs")):
            simulate_cascades(base, [{}, {name: getattr(base, name)}])

    def test_empty_batch(self):
        with pytest.raises(CascadeError, match="cascade batch: no copies"):
            simulate_cascades(bench_cfg(t_end=2.0), [])

    def test_divergence_names_the_copy_and_its_agent(self):
        ok = bench_cfg(t_end=2.0)
        with pytest.raises(DivergenceError) as alone:
            simulate_cascade(dataclasses.replace(ok, k_eta=2000.0))
        with pytest.raises(DivergenceError) as batch:
            simulate_cascades(ok, [{}, {"k_eta": 2000.0}, {}])
        a, b = alone.value, batch.value
        assert a.copy is None and b.copy == 1
        assert (b.agent, b.variable, b.t, b.last_norm) == \
            (a.agent, a.variable, a.t, a.last_norm)
        assert str(b) == f"{a} in batch copy 1"


class TestDeviationBounds:
    def test_pair_grid_shape(self):
        times = np.arange(0, 2401) * 0.025
        pairs = make_pair_grid(times)
        assert len(pairs) >= 380
        for i0, i1 in pairs:
            assert 0 <= i0 < i1 <= 2400

    def test_clean_run_has_no_violations(self):
        tr = simulate_cascade(seeded(bench_cfg(), 3))
        report = iss_estimate_check(tr)
        assert report["violations"] == 0
        assert report["worst_margin"] < 0

    def test_corrupted_run_flags_violations(self):
        tr = simulate_cascade(seeded(bench_cfg(), 3))
        report = iss_estimate_check(tr, eta_override=2.0 * tr.eta_tilde())
        assert report["violations"] > 0

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_report_equals_the_per_pair_oracle(self, sigma):
        # The default grid, corrupted histories (one with a NaN, whose
        # pairs drop out of the worst margin), custom pairs in any order
        # with repeats, and no pairs.
        tr = simulate_cascade(seeded(bench_cfg(t_end=20.0, sigma=sigma),
                                     sigma))
        rng = np.random.default_rng(sigma)
        i0 = rng.integers(0, 400, 60)
        custom = list(zip(i0.tolist(), (i0 + rng.integers(0, 400, 60))
                          .tolist())) * 2
        with_nan = 2.0 * tr.eta_tilde()
        with_nan[300, 1, 0] = np.nan
        for kw in ({}, {"eta_override": 2.0 * tr.eta_tilde()},
                   {"eta_override": with_nan}, {"pairs": custom},
                   {"pairs": [], "rel_tol": 0.0}):
            report = iss_estimate_check(tr, **kw)
            assert repr(report) == repr(iss_estimate_check_oracle(tr, **kw))
        for check in (iss_estimate_check, iss_estimate_check_oracle):
            with pytest.raises(ValueError):
                check(tr, pairs=[(10, 20), (5, 4)])


class TestSweeps:
    def test_gain_sweep_monotone(self):
        vals = run_gain_sweep(seeded(bench_cfg(t_end=30.0, alpha=1.0), 0))
        assert len(vals) == 3
        assert vals[0] >= vals[1] >= vals[2]

    def test_blackout_sweep_monotone(self):
        vals = run_blackout_sweep(seeded(bench_cfg(t_end=30.0, alpha=1.0),
                                         0))
        assert len(vals) == 3
        assert vals[0] <= vals[1] <= vals[2]

    def test_both_sweeps_in_one_batch_equal_each_alone(self):
        base = bench_cfg(t_end=5.0)
        base = seeded(base, 2)
        assert run_sweeps(base) == (run_gain_sweep(base),
                                    run_blackout_sweep(base))

    def test_a_list_h_sweeps_like_its_tuple(self, monkeypatch):
        # The copies are deduplicated on their h as a tuple, so a list h
        # (which CascadeConfig accepts) still gives one batch of 5.
        base = seeded(bench_cfg(t_end=5.0), 2)
        want = run_sweeps(base)
        batches = []
        original = analysis.simulate_cascades

        def batch(base, copies):
            batches.append(len(copies))
            return original(base, copies)
        monkeypatch.setattr(analysis, "simulate_cascades", batch)
        assert run_sweeps(dataclasses.replace(base, h=list(base.h))) == want
        assert batches == [5]


class TestCertificate:
    def test_bench_passes(self):
        report = containment_certificate(bench_topology())
        assert report["pass"]
        assert report["small_gain"]["spectral_radius"] < 1.0
        assert report["row_sum_error"] < 1e-12

    def test_unreachable_fails(self):
        w = np.zeros((4, 4))
        w[0, 3] = 1.0
        w[1, 2] = 1.0
        w[2, 1] = 1.0
        topo = DirectedTopology(n=4, m=3, weights=w)
        report = containment_certificate(topo)
        assert not report["pass"]
        assert report["unreachable_followers"] == [1, 2]
