import numpy as np
import pytest

from mimobp import (BpConfig, ChannelInstance, Topology, bp1_factor_graph,
                    bp2_fully_connected, bp3_ring, build_graph, draw_channel,
                    hard_decide, llr_from_marginals, lmmse, map_marginals,
                    ml_hard, qpsk, soft_output)
from mimobp.channel import Constellation
from conftest import diagonal_channel, random_channel, received


def scalar_posterior(d, sigma2, y_j, constellation):
    """Exact single-user posterior for y = d x + n."""
    w = np.exp(-np.abs(y_j - d * constellation.points) ** 2 / sigma2)
    return w / w.sum()


class TestBp1:
    def test_single_stream_is_exact(self, qpsk_const):
        ch = random_channel(1, 3, 0.4, 1)
        _, _, y = received(ch, qpsk_const, 2)
        state = bp1_factor_graph(ch, qpsk_const, y, BpConfig(iterations=1))
        ref = map_marginals(ch, qpsk_const, y)
        assert np.max(np.abs(state.beliefs - ref)) < 1e-12

    def test_diagonal_channel_is_exact_and_stationary(self, qpsk_const):
        ch = diagonal_channel(4, 0.5, 3)
        _, _, y = received(ch, qpsk_const, 4)
        ref = map_marginals(ch, qpsk_const, y)
        for iters in (1, 3):
            state = bp1_factor_graph(ch, qpsk_const, y, BpConfig(iterations=iters))
            assert np.max(np.abs(state.beliefs - ref)) < 1e-9
        state = bp1_factor_graph(ch, qpsk_const, y, BpConfig(iterations=3))
        assert np.all(state.delta_trace[1:] < 1e-12)

    def test_singly_connected_matches_exact_in_one_pass(self, qpsk_const):
        ch = random_channel(2, 2, 0.3, 5)
        _, _, y = received(ch, qpsk_const, 6)
        state = bp1_factor_graph(ch, qpsk_const, y, BpConfig(iterations=1),
                                 singly_connected=True)
        ref = map_marginals(ch, qpsk_const, y)
        assert np.max(np.abs(state.beliefs - ref)) < 1e-9

    def test_beliefs_are_pmfs(self, qpsk_const):
        ch = random_channel(4, 4, 0.1, 7)
        _, _, y = received(ch, qpsk_const, 8)
        state = bp1_factor_graph(ch, qpsk_const, y, BpConfig(iterations=4))
        assert np.allclose(state.beliefs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(state.beliefs >= 0)


def graphs(seed, sigma2=0.1, m=4, n=4, perm=None):
    ch = random_channel(m, n, sigma2, seed)
    _, _, y = received(ch, qpsk(), seed + 500)
    full = build_graph(ch, y, Topology.FULLY_CONNECTED)
    ring = build_graph(ch, y, Topology.RING, perm)
    return ch, y, full, ring


class TestBp2:
    def test_single_node_returns_prior(self, qpsk_const):
        ch = random_channel(1, 2, 0.2, 9)
        g = build_graph(ch, np.zeros(2), Topology.FULLY_CONNECTED)
        state = bp2_fully_connected(g, qpsk_const, BpConfig(iterations=2))
        assert np.allclose(state.beliefs, 0.25)

    def test_orthogonal_columns_power_law(self, qpsk_const):
        """Decoupled channel: every message equals the scalar posterior, so the
        belief is the normalised (M-1)-th power of it and stays stationary."""
        ch = diagonal_channel(4, 0.5, 10)
        _, _, y = received(ch, qpsk_const, 11)
        g = build_graph(ch, y, Topology.FULLY_CONNECTED)
        state = bp2_fully_connected(g, qpsk_const, BpConfig(iterations=1))
        for j in range(4):
            p = scalar_posterior(ch.H[j, j], ch.sigma2, y[j], qpsk_const)
            expect = p ** 3 / np.sum(p ** 3)
            assert np.max(np.abs(state.beliefs[j] - expect)) < 1e-12
            # hard decisions still match the scalar-channel optimum
            assert state.beliefs[j].argmax() == p.argmax()
        more = bp2_fully_connected(g, qpsk_const, BpConfig(iterations=5))
        assert np.max(np.abs(more.beliefs - state.beliefs)) < 1e-12
        assert np.all(more.delta_trace[1:] < 1e-12)

    def test_two_nodes_reduce_to_ring_recursion(self, qpsk_const):
        ch, y, full, ring = graphs(12, sigma2=0.5, m=2, n=2)
        for iters in (1, 2, 5):
            b2 = bp2_fully_connected(full, qpsk_const, BpConfig(iterations=iters))
            b3 = bp3_ring(ring, qpsk_const, BpConfig(iterations=iters))
            assert np.array_equal(b2.beliefs, b3.beliefs)

    def test_rejects_non_uniform_prior(self):
        base = qpsk()
        # unit-modulus points keep average energy 1 under any prior
        skew = Constellation("QPSK", base.points, 2, base.bit_labels,
                             np.array([0.4, 0.2, 0.2, 0.2]))
        _, _, full, ring = graphs(15)
        with pytest.raises(ValueError, match="uniform"):
            bp2_fully_connected(full, skew, BpConfig())
        with pytest.raises(ValueError, match="uniform"):
            bp3_ring(ring, skew, BpConfig())

    def test_mostly_agrees_with_joint_ml(self, qpsk_const):
        # regression pin at 10 dB, not a claim from the source material
        agree = 0
        trials = 300
        for t in range(trials):
            ch = random_channel(4, 4, 0.1, 10_000 + t)
            _, _, y = received(ch, qpsk_const, 20_000 + t)
            g = build_graph(ch, y, Topology.FULLY_CONNECTED)
            state = bp2_fully_connected(g, qpsk_const, BpConfig(iterations=3))
            agree += np.array_equal(hard_decide(state.beliefs), ml_hard(ch, qpsk_const, y))
        assert agree / trials >= 0.95


class TestBp3:
    def test_orthogonal_columns_square_law(self, qpsk_const):
        ch = diagonal_channel(4, 0.5, 16)
        _, _, y = received(ch, qpsk_const, 17)
        ring = build_graph(ch, y, Topology.RING)
        state = bp3_ring(ring, qpsk_const, BpConfig(iterations=1))
        for j in range(4):
            p = scalar_posterior(ch.H[j, j], ch.sigma2, y[j], qpsk_const)
            expect = p ** 2 / np.sum(p ** 2)
            assert np.max(np.abs(state.beliefs[j] - expect)) < 1e-12
        more = bp3_ring(ring, qpsk_const, BpConfig(iterations=4))
        assert np.max(np.abs(more.beliefs - state.beliefs)) < 1e-12

    def test_permutation_changes_beliefs(self, qpsk_const):
        ch, y, _, ring_nat = graphs(18)
        ring_perm = build_graph(ch, y, Topology.RING, permutation=(1, 0, 2, 3))
        a = bp3_ring(ring_nat, qpsk_const, BpConfig(iterations=4))
        b = bp3_ring(ring_perm, qpsk_const, BpConfig(iterations=4))
        assert np.max(np.abs(a.beliefs - b.beliefs)) > 1e-6

    def test_beliefs_are_pmfs_every_iteration(self, qpsk_const):
        _, _, _, ring = graphs(19, sigma2=0.02)
        for iters in range(1, 6):
            state = bp3_ring(ring, qpsk_const, BpConfig(iterations=iters))
            assert np.allclose(state.beliefs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(state.beliefs >= 0)

    def test_extreme_snr_stability(self, qpsk_const):
        # near-noiseless instance underflows in the linear domain; the default
        # log-domain path must stay finite and sharp
        ch = random_channel(4, 4, 1e-9, 21)
        idx, x, y = received(ch, qpsk_const, 22)
        ring = build_graph(ch, y, Topology.RING)
        state = bp3_ring(ring, qpsk_const, BpConfig(iterations=4))
        assert np.array_equal(hard_decide(state.beliefs), idx)


class TestDecisions:
    def test_uniform_beliefs(self, qpsk_const):
        beliefs = np.full((3, 4), 0.25)
        assert np.array_equal(hard_decide(beliefs), [0, 0, 0])
        assert np.allclose(soft_output(beliefs, qpsk_const), 0.0)

    def test_one_hot_beliefs(self, qpsk_const):
        beliefs = np.zeros((2, 4))
        beliefs[0, 3] = 1.0
        beliefs[1, 1] = 1.0
        assert np.array_equal(hard_decide(beliefs), [3, 1])
        llr = soft_output(beliefs, qpsk_const)
        assert np.all(np.abs(llr) == 40.0)

    def test_soft_output_shares_llr_path(self, qpsk_const):
        g = np.random.default_rng(23)
        beliefs = g.dirichlet(np.ones(4), size=4)
        assert np.array_equal(soft_output(beliefs, qpsk_const),
                              llr_from_marginals(beliefs, qpsk_const))
