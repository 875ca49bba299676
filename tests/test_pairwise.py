import numpy as np
import pytest

from mimobp import (ChannelInstance, PairwiseLink, Topology, build_graph,
                    build_link, cn_pdf, qpsk, translate_kernel, translate_log_table)
from conftest import interference_covariance, random_channel, received


def make_link(seed, m=4, n=4, sigma2=0.1, j=1, i=0):
    ch = random_channel(m, n, sigma2, seed)
    _, _, y = received(ch, qpsk(), seed + 1000)
    return ch, y, build_link(ch, y, j, i)


class TestBuildLink:
    def test_identity_channel_orthogonal_pair(self):
        ch = ChannelInstance(H=np.eye(2), sigma2=1.0)
        y = np.array([0.5, -0.25j])
        link = build_link(ch, y, 1, 0)
        assert np.allclose(link.c, [0, 1])
        assert link.a_jj == pytest.approx(1.0)
        assert link.a_ji == pytest.approx(0.0)
        assert link.sigma2_cond == pytest.approx(1.0)
        assert link.v == pytest.approx(0.0)

    def test_rejects_equal_indices(self):
        ch = random_channel(3, 3, 0.2, 1)
        with pytest.raises(ValueError):
            build_link(ch, np.zeros(3), 2, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_conditional_noise_equals_diagonal_gain(self, seed):
        _, _, link = make_link(seed)
        assert abs(link.a_jj - link.sigma2_cond) < 1e-10
        assert abs(np.imag(link.a_jj)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_mean_recursion_dual_forms(self, seed):
        """offset = filtered observation scaled, and also the smaller-exclusion filter."""
        ch, y, link = make_link(seed)
        K_i = interference_covariance(ch.H, ch.sigma2, {link.i})
        row = np.linalg.solve(K_i, ch.H[:, link.j])
        u_right = np.vdot(row, y)
        v_right = -np.vdot(row, ch.H[:, link.i])
        assert abs(link.u - u_right) <= 1e-10 * (1 + abs(u_right))
        assert abs(link.v - v_right) <= 1e-10 * (1 + abs(v_right))

    @pytest.mark.parametrize("seed", range(5))
    def test_variance_recursion_coefficients(self, seed):
        _, _, link = make_link(seed)
        assert link.u_var == pytest.approx(1 / (1 + link.sigma2_cond), rel=1e-12)
        assert link.v_var == pytest.approx(abs(link.v) ** 2, rel=1e-12)
        assert link.sigma2_cond > 0


class TestTranslateKernel:
    def test_uninformative_limit(self):
        link = PairwiseLink(j=1, i=0, c=np.zeros(2), y_prime=3.0 + 1j, a_jj=1e12,
                            a_ji=0.5, sigma2_cond=1e12, u=0, v=0, u_var=0.5, v_var=0)
        g = translate_kernel(link, 1.0 + 0j)
        assert abs(g.mean) < 1e-10
        assert g.variance < 1e-10

    def test_decoupled_pair_ignores_known_symbol(self):
        ch = ChannelInstance(H=np.eye(2), sigma2=0.5)
        link = build_link(ch, np.array([0.4, 0.3j]), 1, 0)
        kernels = [translate_kernel(link, x) for x in qpsk().points]
        means = {complex(np.round(k.mean, 12)) for k in kernels}
        assert len(means) == 1

    def test_mean_linear_in_known_symbol(self):
        _, _, link = make_link(3)
        slope = -link.a_ji / (1 + link.sigma2_cond)
        base = translate_kernel(link, 0.0).mean
        for x in (1.0, 1j, -0.7 + 0.2j):
            assert translate_kernel(link, x).mean == pytest.approx(base + slope * x, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ratio_form_on_grid(self, seed):
        """Closed form equals likelihood * prior / evidence pointwise."""
        _, _, link = make_link(seed)
        grid = (np.linspace(-2, 2, 8)[:, None] + 1j * np.linspace(-2, 2, 8)[None, :]).ravel()
        for x_i in qpsk().points:
            num = cn_pdf(link.y_prime, link.a_jj * grid + link.a_ji * x_i, link.sigma2_cond)
            num = num * cn_pdf(grid, 0.0, 1.0)
            den = cn_pdf(link.y_prime, link.a_ji * x_i, link.sigma2_cond + link.a_jj ** 2)
            kern = translate_kernel(link, x_i)
            ref = num / den
            got = kern.pdf(grid)
            assert np.max(np.abs(got - ref) / ref) < 1e-8

    def test_log_table_consistent_with_kernel(self):
        _, _, link = make_link(9)
        pts = qpsk().points
        table = translate_log_table(link, pts)
        for t, x_i in enumerate(pts):
            k = translate_kernel(link, x_i)
            assert np.allclose(np.exp(table[:, t]), k.pdf(pts), rtol=1e-12)


class TestBuildGraph:
    def test_fully_connected_link_count(self):
        ch = random_channel(4, 4, 0.2, 7)
        g = build_graph(ch, np.zeros(4), Topology.FULLY_CONNECTED)
        assert len(g.links) == 12

    def test_ring_link_count_and_neighbours(self):
        ch = random_channel(4, 4, 0.2, 7)
        g = build_graph(ch, np.zeros(4), Topology.RING)
        assert len(g.links) == 8
        assert set(g.links) == {(j, i) for j in range(4) for i in ((j - 1) % 4, (j + 1) % 4)}

    def test_two_node_ring_equals_fully_connected_links(self):
        ch = random_channel(2, 3, 0.2, 8)
        _, _, y = received(ch, qpsk(), 9)
        ring = build_graph(ch, y, Topology.RING)
        full = build_graph(ch, y, Topology.FULLY_CONNECTED)
        assert set(ring.links) == set(full.links) == {(0, 1), (1, 0)}

    def test_invalid_permutation(self):
        ch = random_channel(3, 3, 0.2, 10)
        with pytest.raises(ValueError):
            build_graph(ch, np.zeros(3), Topology.RING, permutation=(0, 1, 1))

    def test_permutation_orders_ring(self):
        ch = random_channel(4, 4, 0.2, 11)
        g = build_graph(ch, np.zeros(4), Topology.RING, permutation=(2, 0, 3, 1))
        assert (0, 2) in g.links and (2, 1) in g.links
