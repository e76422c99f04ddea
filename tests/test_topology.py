import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim.topology import (
    WEIGHT_NONNEG_TOL,
    DirectedTopology,
    TopologyError,
    containment_weights,
    is_nonsingular_m_matrix,
    partition,
    small_gain_certificate,
    validate_assumption1,
)
from conftest import bench_topology, random_reachable_topology


def chain_topology():
    # leader 3 -> follower 2 -> follower 1, plus direct leader edge to 1
    w = np.zeros((3, 3))
    w[0, 1] = 1.0   # 2 -> 1
    w[0, 2] = 1.0   # 3 -> 1
    w[1, 2] = 2.0   # 3 -> 2
    return DirectedTopology(n=3, m=2, weights=w)


class TestValidation:
    def test_rejects_self_loop(self):
        w = np.zeros((3, 3))
        w[0, 0] = 1.0
        with pytest.raises(TopologyError):
            DirectedTopology(n=3, m=2, weights=w)

    def test_rejects_leader_in_edge(self):
        w = np.zeros((3, 3))
        w[2, 0] = 1.0
        with pytest.raises(TopologyError):
            DirectedTopology(n=3, m=2, weights=w)

    def test_rejects_negative_weight(self):
        # A NaN or infinite weight is rejected too, not run to a NaN error
        # or a divergence.
        for weight in (-1.0, np.nan, np.inf, -np.inf):
            w = np.zeros((3, 3))
            w[0, 2] = weight
            with pytest.raises(TopologyError):
                DirectedTopology(n=3, m=2, weights=w)

    def test_rejects_bad_sizes(self):
        with pytest.raises(TopologyError):
            DirectedTopology(n=3, m=3, weights=np.zeros((3, 3)))
        with pytest.raises(TopologyError):
            DirectedTopology(n=3, m=1, weights=np.zeros((2, 2)))

    def test_unreachable_follower_detected(self):
        w = np.zeros((4, 4))
        w[0, 3] = 1.0   # leader reaches follower 1 only
        w[1, 2] = 1.0   # followers 2 and 3 only feed each other
        w[2, 1] = 1.0
        topo = DirectedTopology(n=4, m=3, weights=w)
        ok, unreachable = validate_assumption1(topo)
        assert not ok
        assert set(unreachable) == {1, 2}

    def test_reachability_through_follower_chain(self):
        ok, unreachable = validate_assumption1(chain_topology())
        assert ok and unreachable == []


class TestHandSolvedWeights:
    def test_two_follower_chain(self):
        # By hand: L1 = [[2, -1], [0, 2]], L2 = [[-1], [-2]]
        # W = L1^{-1} [1, 2]^T = [[0.5, 0.25],[0, 0.5]] [1,2]^T = [1, 1]^T
        part = partition(chain_topology())
        assert np.allclose(part.L1, [[2.0, -1.0], [0.0, 2.0]])
        assert np.allclose(part.L2, [[-1.0], [-2.0]])
        W = containment_weights(part)
        assert np.allclose(W, [[1.0], [1.0]])

    def test_split_leaders(self):
        # follower 1 listens to both leaders equally, follower 2 only to
        # leader 4 plus follower 1:
        # kappa = (2, 2); W row 1 = (0.5, 0.5); row 2 solves
        # 2 w - w1 = (0, 1) -> w = (0.25, 0.75).
        w = np.zeros((4, 4))
        w[0, 2] = 1.0
        w[0, 3] = 1.0
        w[1, 0] = 1.0
        w[1, 3] = 1.0
        topo = DirectedTopology(n=4, m=2, weights=w)
        W = containment_weights(partition(topo))
        assert np.allclose(W, [[0.5, 0.5], [0.25, 0.75]])


class TestBenchmarkGraph:
    def test_partition_matrices(self):
        part = partition(bench_topology())
        L1_expected = np.array([
            [2, 0, -1, 0, 0, 0],
            [0, 2, -1, 0, 0, 0],
            [-1, 0, 4, -1, 0, 0],
            [0, 0, -1, 3, -1, -1],
            [0, 0, 0, 0, 3, -1],
            [0, 0, 0, 0, -1, 2],
        ], dtype=float)
        L2_expected = np.array([
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, -1, -1, 0],
            [0, 0, 0, 0],
            [0, -1, -1, 0],
            [0, 0, 0, -1],
        ], dtype=float)
        assert np.array_equal(part.L1, L1_expected)
        assert np.array_equal(part.L2, L2_expected)

    def test_certificates(self):
        part = partition(bench_topology())
        assert is_nonsingular_m_matrix(part.L1)
        sg = small_gain_certificate(part)
        assert sg["pass"] and sg["spectral_radius"] < 1.0

    def test_weights_row_stochastic(self):
        W = containment_weights(partition(bench_topology()))
        assert W.shape == (6, 4)
        assert np.min(W) >= 0.0
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def reachable_topologies(draw):
    """Random weighted digraphs in which leaders reach every follower.

    Followers are wired in a random order, each with one in-edge from a
    leader or an earlier follower, so every follower is reachable; extra
    random follower in-edges then add cycles and parallel paths.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, n - 1))
    weight = st.floats(0.01, 100.0)
    w = np.zeros((n, n))
    order = draw(st.permutations(range(m)))
    for pos, i in enumerate(order):
        src = draw(st.sampled_from([*range(m, n), *order[:pos]]))
        w[i, src] = draw(weight)
    extra = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, n - 1), weight),
                          max_size=3 * n))
    for i, j, x in extra:
        if i != j:
            w[i, j] = x
    return DirectedTopology(n=n, m=m, weights=w)


class TestRandomizedProperties:
    @settings(max_examples=300, deadline=None)
    @given(reachable_topologies())
    def test_containment_weights_property(self, topo):
        assert validate_assumption1(topo)[0]
        part = partition(topo)
        W = containment_weights(part)
        # An exact zero weight can come out of the solve as -2.8e-17.
        assert np.all(W >= -WEIGHT_NONNEG_TOL)
        assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(W + np.linalg.inv(part.L1) @ part.L2)) <= 1e-9

    def test_random_topologies(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            topo = random_reachable_topology(rng)
            part = partition(topo)
            assert is_nonsingular_m_matrix(part.L1)
            assert small_gain_certificate(part)["pass"]
            W = containment_weights(part)
            assert np.min(W) >= -1e-12
            assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-9

    def test_m_matrix_rejects_hurwitz_negation(self):
        assert not is_nonsingular_m_matrix(np.array([[-1.0, 0.0], [0.0, 2.0]]))
        assert not is_nonsingular_m_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_edges_roundtrip(self):
        topo = bench_topology()
        edges = topo.edges()
        assert len(edges) == 16
        w = np.zeros((10, 10))
        for src, dst in edges:
            w[dst, src] = 1.0
        assert np.array_equal(w, topo.weights)

    def test_kappa_matches_degree(self):
        topo = bench_topology()
        assert np.array_equal(topo.kappa, [2, 2, 4, 3, 3, 2])
