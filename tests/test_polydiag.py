from itertools import product

import numpy as np
import pytest

from mimobp import (BpConfig, ChannelInstance, Topology, bidiagonalize,
                    bp3_ring, build_graph, forward_backward_detect, map_marginals,
                    qpsk)
from conftest import diagonal_channel, interference_covariance, random_channel, received


class TestBidiagonalize:
    def test_identity_channel_decouples(self):
        ch = ChannelInstance(H=np.eye(4), sigma2=1.0)
        bd = bidiagonalize(ch)
        assert np.allclose(bd.a_sub, 0.0)
        assert np.allclose(bd.leakage, 0.0)

    def test_needs_two_streams(self):
        ch = random_channel(1, 2, 0.1, 1)
        with pytest.raises(ValueError):
            bidiagonalize(ch)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_power_identity(self, seed):
        """c^H (sigma2 I + sum_out h h^H) c equals c^H h_target on every row."""
        ch = random_channel(4, 4, 0.2, seed)
        bd = bidiagonalize(ch)
        for r in range(4):
            target, prev = bd.order[r], bd.order[(r - 1) % 4]
            K = interference_covariance(ch.H, ch.sigma2, (target, prev))
            c = bd.C[:, r]
            lhs = np.vdot(c, K @ c).real
            rhs = np.vdot(c, ch.H[:, target]).real
            assert abs(lhs - rhs) < 1e-10
            assert bd.sigma2_eff[r] == pytest.approx(rhs, rel=1e-12)

    def test_filter_maximises_sinr(self):
        # 100 random perturbations never improve |c^H h|^2 / (c^H K c)
        ch = random_channel(4, 4, 0.3, 42)
        bd = bidiagonalize(ch)
        g = np.random.default_rng(43)
        for r in range(4):
            target, prev = bd.order[r], bd.order[(r - 1) % 4]
            K = interference_covariance(ch.H, ch.sigma2, (target, prev))
            h = ch.H[:, target]

            def sinr(c):
                return abs(np.vdot(c, h)) ** 2 / np.vdot(c, K @ c).real

            base = sinr(bd.C[:, r])
            for _ in range(100):
                d = 0.1 * (g.standard_normal(4) + 1j * g.standard_normal(4))
                assert sinr(bd.C[:, r] + d) <= base + 1e-12


def effective_model_exhaustive(bd, constellation, y):
    """Exact posterior of the shortened model treating n' as independent."""
    m, size = bd.a_diag.shape[0], constellation.size
    y_eff = bd.C.conj().T @ y
    post = np.zeros((m, size))
    for idx in product(range(size), repeat=m):
        lp = 0.0
        for r in range(m):
            s = constellation.points[idx[r]]
            t = constellation.points[idx[(r - 1) % m]]
            lp += -abs(y_eff[r] - bd.a_diag[r] * s - bd.a_sub[r] * t) ** 2 / bd.sigma2_eff[r]
        w = np.exp(lp)
        for r in range(m):
            post[bd.order[r], idx[r]] += w
    return post / post.sum(axis=1, keepdims=True)


class TestForwardBackward:
    def test_decoupled_chain_gives_scalar_posteriors(self, qpsk_const):
        ch = diagonal_channel(4, 0.5, 30)
        _, _, y = received(ch, qpsk_const, 31)
        bd = bidiagonalize(ch)
        state = forward_backward_detect(bd, qpsk_const, y, BpConfig(iterations=1))
        ref = map_marginals(ch, qpsk_const, y)
        assert np.max(np.abs(state.beliefs - ref)) < 1e-9
        again = forward_backward_detect(bd, qpsk_const, y, BpConfig(iterations=4))
        assert np.max(np.abs(again.beliefs - state.beliefs)) < 1e-12

    def test_two_stream_loop_differs_from_effective_exhaustive(self, qpsk_const):
        """The two-node tail-biting graph is loopy, so the recursion's beliefs
        need not equal the effective model's exact marginals; they do
        coincide when the cross taps vanish."""
        ch = random_channel(2, 3, 0.5, 33)
        _, _, y = received(ch, qpsk_const, 34)
        bd = bidiagonalize(ch)
        state = forward_backward_detect(bd, qpsk_const, y, BpConfig(iterations=40))
        ref = effective_model_exhaustive(bd, qpsk_const, y)
        assert np.allclose(state.beliefs.sum(axis=1), 1.0, atol=1e-12)
        # hard decisions agree on this instance even though the pmfs differ
        assert np.array_equal(state.beliefs.argmax(axis=1), ref.argmax(axis=1))
        assert np.max(np.abs(state.beliefs - ref)) > 1e-6

    def test_decoupled_two_stream_matches_effective_exhaustive(self, qpsk_const):
        ch = diagonal_channel(2, 0.4, 35)
        _, _, y = received(ch, qpsk_const, 36)
        bd = bidiagonalize(ch)
        state = forward_backward_detect(bd, qpsk_const, y, BpConfig(iterations=8))
        ref = effective_model_exhaustive(bd, qpsk_const, y)
        assert np.max(np.abs(state.beliefs - ref)) < 1e-9

    def test_differs_from_ring_bp_on_generic_channel(self, qpsk_const):
        # the ring detector optimises each direction's observation separately;
        # the shortened-channel recursion reuses one observation per factor
        ch = random_channel(4, 4, 0.2, 37)
        _, _, y = received(ch, qpsk_const, 38)
        fb = forward_backward_detect(bidiagonalize(ch), qpsk_const, y,
                                     BpConfig(iterations=4))
        ring = bp3_ring(build_graph(ch, y, Topology.RING), qpsk_const,
                        BpConfig(iterations=4))
        assert np.max(np.abs(fb.beliefs - ring.beliefs)) > 1e-6

    def test_beliefs_stay_pmfs(self, qpsk_const):
        ch = random_channel(4, 6, 0.05, 39)
        _, _, y = received(ch, qpsk_const, 40)
        state = forward_backward_detect(bidiagonalize(ch), qpsk_const, y,
                                        BpConfig(iterations=4))
        assert np.allclose(state.beliefs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(state.beliefs >= 0)

    def test_leakage_reported_on_generic_channel(self):
        ch = random_channel(4, 4, 0.2, 41)
        bd = bidiagonalize(ch)
        assert np.all(bd.leakage >= 0)
        assert np.any(bd.leakage > 1e-6)

    def test_error_rate_sits_between_ml_and_lmmse(self, qpsk_const):
        # paired trials: the shortened-channel detector beats the linear
        # filter and cannot beat joint ML
        from mimobp import batch
        from mimobp.sim import SimConfig, generate_batch
        sigma2 = 10 ** (-0.8)
        cfg = SimConfig(snr_db=(8.0,), trials=2000, seed=44)
        H, idx, y = generate_batch(cfg, qpsk_const, sigma2, 0, 0, 2000)
        labels = qpsk_const.bit_labels
        truth = labels[idx]
        err_ml = int(np.sum(labels[batch.ml_hard_batch(H, y, sigma2, qpsk_const)] != truth))
        fb = np.argmax(batch.fb_batch(H, y, sigma2, qpsk_const, 4), axis=2)
        err_fb = int(np.sum(labels[fb] != truth))
        xhat, _ = batch.lmmse_batch(H, y, sigma2)
        err_lm = int(np.sum(labels[qpsk_const.slice_hard(xhat)] != truth))
        assert err_ml <= err_fb < err_lm
