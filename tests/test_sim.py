import csv
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim import config, sim
from containsim.comm import CommConfig
from containsim.control import GainSet
from containsim.dynamics import AgentModel, LeaderTrajectory
from containsim.sim import (
    DivergenceError,
    Scenario,
    ScenarioError,
    build_schedules,
    containment_error,
    convex_hull_2d,
    hull_distance,
)
from containsim.topology import DirectedTopology
from conftest import SCENARIOS, load_scenario_doc, seeded


def tiny_scenario(**kw):
    """3 agents (2 followers, 1 leader), perfect instantaneous comm."""
    w = np.zeros((3, 3))
    w[0, 1] = 1.0
    w[0, 2] = 1.0
    w[1, 2] = 1.0
    topo = DirectedTopology(n=3, m=2, weights=w)
    model = AgentModel(kind="double_integrator")
    v_d = np.array([1.0, 0.0])
    base = dict(
        topo=topo, model=model,
        leaders=LeaderTrajectory("constant_velocity", v_d, [3]),
        variant="known_vd", gains=GainSet(m=2, k_p=4.0, k_d=4.0),
        comm=CommConfig(T=0.1, T_star=1.5), dt=0.01, t_end=5.0, N=2,
        p0=np.array([[1.0, 1.0], [-1.0, 2.0], [0.0, 0.0]]),
        v0=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        v_d=v_d)
    base.update(kw)
    return Scenario(**base)


# Per-point reference for the batched planar hull distance: one hull per
# point, scalar NumPy arithmetic.

def _hull_distance_2d(p: np.ndarray, X: np.ndarray) -> float:
    hull = _convex_hull_2d(X)
    if len(hull) == 1:
        return float(np.linalg.norm(p - hull[0]))
    if len(hull) == 2:
        return _segment_distance(p, hull[0], hull[1])
    inside = all(
        _cross2(hull[(k + 1) % len(hull)] - hull[k], p - hull[k]) >= -1e-12
        for k in range(len(hull)))
    if inside:
        return 0.0
    return min(_segment_distance(p, hull[k], hull[(k + 1) % len(hull)])
               for k in range(len(hull)))


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _convex_hull_2d(X: np.ndarray) -> list[np.ndarray]:
    """Monotone-chain hull, counterclockwise, degenerate cases collapsed."""
    pts = sorted({(float(x), float(y)) for x, y in X})
    if len(pts) <= 2:
        return [np.array(q) for q in pts]

    def half(points):
        out = []
        for q in points:
            while len(out) >= 2 and _cross2(
                    np.subtract(out[-1], out[-2]),
                    np.subtract(q, out[-2])) <= 1e-14:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:   # collinear input
        return [np.array(pts[0]), np.array(pts[-1])]
    return [np.array(q) for q in hull]


def _dot2(x, y) -> float:
    # x0 y0 + x1 y1, rounded after each operation, as the batched distance
    # sums it (a BLAS dot of two terms fuses the second product and add).
    return float(x[0] * y[0] + x[1] * y[1])


def _segment_distance(p, a, b) -> float:
    ab = np.subtract(b, a)
    denom = _dot2(ab, ab)
    s = 0.0 if denom == 0 else float(np.clip(_dot2(p - a, ab) / denom,
                                             0.0, 1.0))
    return float(np.linalg.norm(p - (a + s * ab)))


def hull_cases():
    """Leader sets and followers, random and degenerate: one leader,
    coincident, collinear and duplicated leaders, followers on vertices, on
    edges and duplicated."""
    rng = np.random.default_rng(2024)
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    cases = [
        (np.array([[3.0, 4.0]]), rng.normal(size=(5, 2))),
        (np.array([[1.0, 1.0]] * 3), rng.normal(size=(5, 2))),
        (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]),
         np.array([[1.0, 2.0], [-3.0, 0.0], [0.5, 0.0], [2.0, 0.0],
                   [5.0, -1.0]])),
        (np.outer([0.3, -1.2, 2.5, 0.7], [1.0, -2.0]),
         rng.normal(size=(6, 2))),
        (np.vstack([square, square[:2], [[1.0, 1.0], [1.0, 0.0]]]),
         np.vstack([square, [[1.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                             [1.0, 1.0], [3.0, 3.0], [-1.0, 1.0]]])),
    ]
    for _ in range(200):
        leaders = rng.normal(size=(rng.integers(2, 9), 2)) * 2.0
        if rng.random() < 0.3:
            leaders = np.round(leaders)
        followers = np.vstack([rng.normal(size=(6, 2)) * 3.0, leaders[:2],
                               (leaders[0] + leaders[1]) / 2, leaders[:1]])
        cases.append((leaders, followers))
    return cases


def assert_same_hulls(hulls, sizes, X):
    """Each step's hull, of sizes[s] leading rows, is the oracle's hull of
    X[s], vertex for vertex and sign bit for sign bit."""
    assert sizes.shape == (len(X),)
    for hull, size, x in zip(hulls, sizes, X):
        want = np.array(_convex_hull_2d(x)).reshape(-1, 2)
        assert np.array_equal(hull[:size].view(np.int64), want.view(np.int64))


class TestHullDistance:
    def test_inside_square(self):
        leaders = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        assert hull_distance(np.array([1.0, 1.0]), leaders) == 0.0
        assert hull_distance(np.array([0.0, 0.0]), leaders) == 0.0
        assert hull_distance(np.array([1.0, 0.0]), leaders) == 0.0

    def test_outside_square_oracle(self):
        leaders = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        # beyond an edge: perpendicular distance
        assert hull_distance(np.array([1.0, -3.0]), leaders) == \
            pytest.approx(3.0)
        # beyond a corner: Euclidean distance to the corner
        assert hull_distance(np.array([4.0, 4.0]), leaders) == \
            pytest.approx(math.sqrt(8.0))

    def test_scipy_hull_oracle_random(self):
        from scipy.spatial import ConvexHull, Delaunay
        rng = np.random.default_rng(77)
        for _ in range(40):
            leaders = rng.normal(size=(5, 2)) * 2.0
            q = rng.normal(size=2) * 3.0
            got = hull_distance(q, leaders)
            if Delaunay(leaders).find_simplex(q) >= 0:
                assert got == pytest.approx(0.0, abs=1e-12)
                continue
            hull = ConvexHull(leaders)
            verts = leaders[hull.vertices]
            best = np.inf
            for k in range(len(verts)):
                a, b = verts[k], verts[(k + 1) % len(verts)]
                ab = b - a
                s = np.clip((q - a) @ ab / (ab @ ab), 0.0, 1.0)
                best = min(best, float(np.linalg.norm(q - (a + s * ab))))
            assert got == pytest.approx(best, abs=1e-9)

    def test_simplex_sampling_upper_bound(self):
        rng = np.random.default_rng(78)
        for _ in range(10):
            leaders = rng.normal(size=(5, 2)) * 2.0
            q = rng.normal(size=2) * 3.0
            got = hull_distance(q, leaders)
            for _ in range(500):
                a = rng.dirichlet(np.ones(5))
                assert got <= np.linalg.norm(q - a @ leaders) + 1e-9

    def test_degenerate_hulls(self):
        # single leader
        assert hull_distance(np.array([3.0, 4.0]),
                             np.array([[0.0, 0.0]])) == pytest.approx(5.0)
        # collinear leaders: distance to the segment
        seg = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert hull_distance(np.array([1.0, 2.0]), seg) == pytest.approx(2.0)
        assert hull_distance(np.array([-3.0, 0.0]), seg) == pytest.approx(3.0)
        # coincident leaders
        same = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hull_distance(np.array([1.0, 1.0]), same) == pytest.approx(0.0)

    def test_higher_dimension_matches_planar_embedding(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            leaders2 = rng.normal(size=(4, 2))
            q2 = rng.normal(size=2) * 2.0
            # embed in 3-D on the z = 0 plane
            leaders3 = np.hstack([leaders2, np.zeros((4, 1))])
            q3 = np.concatenate([q2, [0.0]])
            assert hull_distance(q3, leaders3) == \
                pytest.approx(hull_distance(q2, leaders2), abs=1e-6)

    def test_batched_matches_per_point_oracle(self):
        for leaders, followers in hull_cases():
            got = hull_distance(followers, leaders)
            want = np.array([_hull_distance_2d(q, leaders) for q in followers])
            assert got.shape == (len(followers),)
            assert np.array_equal(got, want)
            assert all(hull_distance(q, leaders) == d
                       for q, d in zip(followers, want))

    @pytest.mark.parametrize("block", [sim.HULL_BLOCK_POINTS, 70, 1])
    def test_stacked_matches_per_step_oracle(self, block, monkeypatch):
        # Every case as one step of a stack: rows repeated cyclically up to
        # a common count (repeats leave the hull as it is), so a single
        # (S, L, 2) input mixes 1-, 2- and many-vertex hulls.
        monkeypatch.setattr(sim, "HULL_BLOCK_POINTS", block)
        cases = hull_cases()
        L = max(len(leaders) for leaders, _ in cases)
        m = max(len(followers) for _, followers in cases)
        X = np.stack([np.resize(leaders, (L, 2)) for leaders, _ in cases])
        P = np.stack([np.resize(followers, (m, 2)) for _, followers in cases])
        sizes = set(convex_hull_2d(X)[1].tolist())
        assert {1, 2} < sizes and max(sizes) >= 3
        got = hull_distance(P, X)
        want = np.array([[_hull_distance_2d(q, x) for q in ps]
                         for ps, x in zip(P, X)])
        assert got.shape == (len(cases), m)
        assert np.array_equal(got, want)

    def test_stacked_beyond_the_plane_matches_per_step_calls(self):
        rng = np.random.default_rng(11)
        P = rng.normal(size=(3, 5, 3)) * 2.0
        for L in (4, 1):                    # the nnls path, one leader
            X = rng.normal(size=(3, L, 3))
            got = hull_distance(P, X)
            assert got.shape == (3, 5)
            assert np.array_equal(
                got, np.array([hull_distance(ps, x) for ps, x in zip(P, X)]))

    def test_convex_hull_matches_oracle_order(self):
        for leaders, _ in hull_cases():
            hulls, sizes = convex_hull_2d(leaders[None])
            assert hulls.shape == (1, 2 * len(leaders), 2)
            assert_same_hulls(hulls, sizes, leaders[None])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 9),
           st.sampled_from(["grid", "pool", "collinear", "coincident"]))
    def test_stacked_hulls_match_oracle(self, seed, L, kind):
        # Integer-grid stacks, where turn tests are exact and ties common:
        # duplicated rows ("pool"), collinear and coincident sets, and
        # zeros of either sign.
        rng = np.random.default_rng(seed)
        X = rng.integers(-3, 4, size=(rng.integers(1, 9), L, 2)) * 1.0
        if kind == "pool":
            X = X[:, rng.integers(0, min(L, 3), size=L)]
        elif kind == "collinear":
            X[..., 1] = rng.integers(-2, 3) * X[..., 0] + rng.integers(-1, 2)
        elif kind == "coincident":
            X[:] = X[:, :1]
        X[(X == 0) & (rng.random(X.shape) < 0.5)] *= -1.0
        assert_same_hulls(*convex_hull_2d(X), X)

    def test_non_finite_leaders_give_nan_to_their_step_only(self):
        square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        P = np.array([[[1.0, 1.0], [3.0, 1.0], [-1.0, -1.0]]] * 2)
        for bad in (np.nan, np.inf, -np.inf):
            for L in (1, 2, 4):
                for axis in (0, 1):
                    X = np.stack([square[:L], square[:L]])
                    X[0, L - 1, axis] = bad
                    with np.errstate(invalid="ignore"):
                        got = hull_distance(P, X)
                    assert np.isnan(got[0]).all()
                    assert np.array_equal(got[1],
                                          hull_distance(P[1], square[:L]))


class TestRunLoop:
    def test_known_vd_matches_closed_form(self):
        # Stationary leader, known limit velocity zero, perfect comm at a
        # fast rate: each follower obeys
        # ddot p = -k_d dot p - k_p (p - psi) with psi converging to the
        # leader position; compare against the scalar linear ODE solution.
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        topo = DirectedTopology(n=2, m=1, weights=w)
        v_d = np.zeros(2)
        scen = Scenario(
            topo=topo, model=AgentModel(kind="double_integrator"),
            leaders=LeaderTrajectory("stationary", np.zeros(2), [2]),
            variant="known_vd", gains=GainSet(m=1, k_p=4.0, k_d=4.0),
            comm=CommConfig(T=0.01, T_star=1.5), dt=0.001, t_end=3.0, N=2,
            p0=np.array([[1.0, -2.0], [0.0, 0.0]]),
            v0=np.zeros((2, 2)), v_d=v_d)
        trace = sim.run(scen)
        # psi equals the leader position (stationary, zero velocity payload),
        # so p(t) = p_leader + (p0 - p_leader)(1 + 2t)e^{-2t} for a critically
        # damped double pole at -2.
        t = trace.times
        decay = (1 + 2 * t) * np.exp(-2 * t)
        expected = decay[:, None] * scen.p0[0]
        assert np.max(np.abs(trace.p[:, 0] - expected)) < 2e-4

    def test_divergence_guard(self):
        gains = GainSet(m=2, k_p=4.0e6, k_d=4000.0)
        scen = tiny_scenario(gains=gains, t_end=10.0)
        with pytest.raises(DivergenceError) as exc:
            sim.run(scen)
        err = exc.value
        assert (err.t, err.agent, err.variable) == (0.02, 0, "v")
        # The last step in range is t = 0.01, the end of a one-step run.
        trace = sim.run(tiny_scenario(gains=gains, t_end=0.01))
        assert np.all(np.abs(trace.v[1]) <= sim.DIVERGENCE_LIMIT)
        assert err.last_norm == np.linalg.norm(trace.v[1, 0])
        assert "agent 0" in str(err) and "v" in str(err)

    def test_dt_must_divide_period(self):
        scen = tiny_scenario(dt=0.003)
        with pytest.raises(ScenarioError):
            sim.run(scen)

    def test_dt_must_be_fine_enough(self):
        scen = tiny_scenario(dt=0.05)
        with pytest.raises(ScenarioError):
            sim.run(scen)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field, key", [("dt", "sim.dt_seconds"),
                                            ("t_end", "sim.t_end_seconds")])
    def test_step_and_horizon_must_be_positive(self, field, key, value):
        with pytest.raises(ScenarioError, match=f"{key} must be > 0"):
            tiny_scenario(**{field: value}).validate()

    @pytest.mark.parametrize("index", [None, [], [2, 3]])
    def test_one_leader_index_per_leader(self, index):
        # One leader (agent 3): no trajectory, or one for 0 or 2 leaders.
        leaders = None if index is None else \
            LeaderTrajectory("constant_velocity", np.ones(2), index)
        with pytest.raises(ScenarioError, match="one leader index per leader"):
            tiny_scenario(leaders=leaders).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["p0", "v0", "v_d"])
    def test_non_finite_initial_states_name_the_array(self, field, value):
        # From the Python API: caught by validate, not as a DivergenceError
        # at t = dt.
        scen = tiny_scenario()              # known_vd, with v_d
        x = np.array(getattr(scen, field), dtype=float)
        x.flat[-1] = value
        with pytest.raises(ScenarioError, match=f"^{field} must be finite"):
            sim.run(dataclasses.replace(scen, **{field: x}))

    def test_horizon_off_the_step_grid_rejected(self):
        with pytest.raises(ScenarioError,
                           match=r"dt must divide sim\.t_end_seconds"):
            tiny_scenario(t_end=1.005).validate()

    @pytest.mark.parametrize("S1", [[[1.0, 0.0], [0.0, 1.0]],     # real
                                    [[0.0, 0.0], [0.0, 0.0]]])    # Jordan
    def test_oscillator_spectrum_checked(self, S1):
        doc = load_scenario_doc("oscillator_harmonic")
        config.build_scenario(doc).validate()
        doc["agents"]["model"]["S1"] = S1
        with pytest.raises(ScenarioError, match="semi-simple spectrum"):
            config.build_scenario(doc).validate()

    def test_trace_grid_lookup(self):
        trace = sim.run(tiny_scenario(t_end=1.0))
        assert trace.index_of(0.5) == 50
        with pytest.raises(ValueError):
            trace.index_of(0.505)

    def test_containment_error_accessor(self):
        trace = sim.run(tiny_scenario(t_end=1.0))
        vec, norm = containment_error(trace, 1.0)
        assert vec.shape == (4,)
        assert norm == pytest.approx(np.linalg.norm(vec))
        assert norm == pytest.approx(trace.err_pos_norm[-1])

    def test_error_decreases(self):
        trace = sim.run(tiny_scenario(t_end=5.0))
        assert trace.err_pos_norm[-1] < 1e-2 * trace.err_pos_norm[0]

    def test_weights_on_trace(self):
        trace = sim.run(tiny_scenario(t_end=1.0))
        assert np.allclose(trace.W, [[1.0], [1.0]])


class TestDeterminism:
    def test_same_seed_same_trace(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 4.0
        scen = config.build_scenario(doc)
        a = sim.run(seeded(scen, 9))
        b = sim.run(seeded(scen, 9))
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.gamma, b.gamma)

    def test_different_seed_differs(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 4.0
        scen = config.build_scenario(doc)
        a = sim.run(seeded(scen, 9))
        b = sim.run(seeded(scen, 10))
        assert not np.array_equal(a.p, b.p)

    def test_csv_bytes_identical(self, tmp_path):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 2.0
        scen = config.build_scenario(doc)
        digests = []
        for name in ("a.csv", "b.csv"):
            trace = sim.run(seeded(scen, 4))
            path = tmp_path / name
            sim.export_trace_csv(trace, str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_csv_layout(self, tmp_path):
        trace = sim.run(tiny_scenario(t_end=1.0))
        path = tmp_path / "t.csv"
        sim.export_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,agent_id,role,p_1,p_2,v_1,v_2,err_norm,hull_dist"
        assert len(lines) == 1 + 101 * 3
        first = lines[1].split(",")
        assert first[1] == "1" and first[2] == "follower"
        leader_row = lines[3].split(",")
        assert leader_row[2] == "leader"
        assert leader_row[7] == "" and leader_row[8] == ""

    def test_sidecar_and_audit(self, tmp_path):
        scen = tiny_scenario(t_end=1.0)
        trace = sim.run(scen)
        sim.export_trace_sidecar(trace, scen, str(tmp_path / "s.json"))
        sim.export_audit_csv(trace, str(tmp_path / "a.csv"))
        import json
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["comm"]["T_seconds"] == 0.1
        assert "final_err_pos_norm" in doc
        audit = (tmp_path / "a.csv").read_text().splitlines()
        assert audit[0] == "src,dst,seq,send_time,arrival_time"
        assert len(audit) > 1


def export_trace_csv_oracle(trace, path: str) -> None:
    """The trace CSV written row by row through csv.writer: the reference
    the array-built, block-streamed export must equal byte for byte."""
    n = trace.p.shape[1]
    N = trace.p.shape[2]
    m = trace.m
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["t", "agent_id", "role"]
        header += [f"p_{d + 1}" for d in range(N)]
        header += [f"v_{d + 1}" for d in range(N)]
        header += ["err_norm", "hull_dist"]
        w.writerow(header)
        for k, t in enumerate(trace.times):
            for i in range(n):
                role = "follower" if i < m else "leader"
                row = [repr(float(t)), i + 1, role]
                row += [repr(float(x)) for x in trace.p[k, i]]
                row += [repr(float(x)) for x in trace.v[k, i]]
                if i < m:
                    row.append(repr(float(np.linalg.norm(trace.err_pos[k, i]))))
                    row.append(repr(float(trace.hull_dist[k, i])))
                else:
                    row += ["", ""]
                w.writerow(row)


def export_trace_csv_lines_oracle(trace, path: str) -> None:
    """The trace CSV built one f-string per agent and step from the arrays,
    EXPORT_BLOCK_STEPS steps per write: the writer that one format string
    per step replaced."""
    n, N = trace.p.shape[1:]
    m = trace.m
    header = ["t", "agent_id", "role"]
    header += [f"p_{d + 1}" for d in range(N)]
    header += [f"v_{d + 1}" for d in range(N)]
    header += ["err_norm", "hull_dist"]
    agents = [f"{i + 1},{'follower' if i < m else 'leader'}"
              for i in range(n)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(trace.times), sim.EXPORT_BLOCK_STEPS):
            block = slice(start, start + sim.EXPORT_BLOCK_STEPS)
            state = np.concatenate((trace.p[block], trace.v[block]), axis=2)
            gap = trace.err_pos[block]
            lines = []
            for t, rows, err, hull in zip(
                    map(repr, trace.times[block].tolist()), state.tolist(),
                    np.sqrt(np.vecdot(gap, gap)).tolist(),
                    trace.hull_dist[block].tolist()):
                tail = [f"{e!r},{h!r}" for e, h in zip(err, hull)]
                tail += [","] * (n - m)
                lines += [f"{t},{a},{','.join(map(repr, r))},{x}\r\n"
                          for a, r, x in zip(agents, rows, tail)]
            fh.write("".join(lines))


def assert_export_equals_oracle(trace, tmp_path) -> None:
    sim.export_trace_csv(trace, str(tmp_path / "trace.csv"))
    for oracle in (export_trace_csv_oracle, export_trace_csv_lines_oracle):
        oracle(trace, str(tmp_path / "oracle.csv"))
        assert (tmp_path / "trace.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes(), oracle.__name__


def first_steps(trace, rows: int):
    """The trace cut to its first rows steps."""
    return dataclasses.replace(
        trace, times=trace.times[:rows], p=trace.p[:rows], v=trace.v[:rows],
        err_pos=trace.err_pos[:rows], hull_dist=trace.hull_dist[:rows])


class TestExport:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_bundled_scenario_equals_the_oracle(self, name, tmp_path):
        doc = load_scenario_doc(name)
        doc["sim"]["t_end_seconds"] = 1.0
        assert_export_equals_oracle(sim.run(config.build_scenario(doc)),
                                    tmp_path)

    def test_three_dimensions_equal_the_oracle(self, tmp_path):
        v_d = np.array([1.0, 0.0, -0.5])
        scen = tiny_scenario(
            N=3, t_end=1.0, v_d=v_d,
            leaders=LeaderTrajectory("constant_velocity", v_d, [3]),
            p0=np.array([[1.0, 1.0, 0.5], [-1.0, 2.0, 0.0],
                         [0.0, 0.0, 0.0]]),
            v0=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                         [1.0, 0.0, -0.5]]))
        assert_export_equals_oracle(sim.run(scen), tmp_path)

    @pytest.mark.parametrize("rows", [1, sim.EXPORT_BLOCK_STEPS - 1,
                                      sim.EXPORT_BLOCK_STEPS,
                                      sim.EXPORT_BLOCK_STEPS + 1])
    def test_block_boundary_equals_the_oracle(self, rows, tmp_path):
        trace = sim.run(tiny_scenario(t_end=2.6))
        assert len(trace.times) > rows
        assert_export_equals_oracle(first_steps(trace, rows), tmp_path)


class TestConvergenceOrder:
    def test_halving_dt_keeps_final_error(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 4.0
        scen = config.build_scenario(doc)
        schedules = build_schedules(seeded(scen, 2))
        coarse = sim.run(scen, schedules=schedules)
        fine = sim.run(dataclasses.replace(scen, dt=scen.dt / 2),
                       schedules=schedules)
        assert abs(coarse.err_pos_norm[-1] - fine.err_pos_norm[-1]) < 1e-6

    def test_injected_schedules_override_seed(self):
        scen = tiny_scenario(
            comm=CommConfig(T=0.1, T_star=1.5, drop_prob=0.3, delay_max=0.5,
                            seed=0),
            t_end=2.0)
        schedules = build_schedules(seeded(scen, 123))
        a = sim.run(scen, schedules=schedules)
        b = sim.run(seeded(scen, 123))
        assert np.array_equal(a.p, b.p)
        assert a.schedules is schedules
        assert sorted(b.schedules) == sorted(schedules)

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_injected_schedules_must_match_the_edges(self, change):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 1.0
        scen = config.build_scenario(doc)
        schedules = build_schedules(scen)
        if change == "missing":
            del schedules[(2, 0)]
            named = "missing edges [(2, 0)], extra edges []"
        else:
            schedules[(0, 5)] = schedules[(2, 0)]
            named = "missing edges [], extra edges [(0, 5)]"
        with pytest.raises(ScenarioError, match=re.escape(named)):
            sim.run(scen, schedules=schedules)
