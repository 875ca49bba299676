import numpy as np
import pytest

from mimobp import ComplexGaussian1D, cn_logpdf, cn_pdf, draw_channel
from conftest import interference_covariance


def quad_grid(center, sigma, points=200, span=6.0):
    """Midpoint grid over a +-span*sigma square around center."""
    half = span * sigma
    edges = np.linspace(-half, half, points + 1)
    mid = (edges[:-1] + edges[1:]) / 2
    step = edges[1] - edges[0]
    z = center + mid[:, None] + 1j * mid[None, :]
    return z, step * step


class TestCnPdf:
    def test_peak_of_unit_variance(self):
        assert cn_pdf(0.0, 0.0, 1.0) == pytest.approx(1 / np.pi, rel=1e-14)

    def test_value_at_mean(self):
        mu, s2 = 0.3 - 1.2j, 0.37
        assert cn_pdf(mu, mu, s2) == pytest.approx(1 / (np.pi * s2), rel=1e-14)

    def test_integrates_to_one(self):
        mu, s2 = 0.7 + 0.2j, 0.8
        z, dA = quad_grid(mu, np.sqrt(s2))
        assert np.sum(cn_pdf(z, mu, s2)) * dA == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            cn_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            cn_pdf(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            ComplexGaussian1D(0.0, -0.5)

    def test_logpdf_consistent(self, rng):
        x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.allclose(np.exp(cn_logpdf(x, 0.2j, 1.7)), cn_pdf(x, 0.2j, 1.7))


class TestPartialCovariance:
    """The explicit covariance that the filter-identity checks use as reference."""

    def test_all_columns_excluded_leaves_noise(self):
        K = interference_covariance(np.eye(2), 1.0, {0, 1})
        assert np.allclose(K, np.eye(2))

    def test_single_exclusion_identity_channel(self):
        K = interference_covariance(np.eye(2), 1.0, {0})
        assert np.allclose(K, np.diag([1.0, 2.0]))

    def test_matches_outer_product_accumulation(self):
        H = draw_channel(4, 4, 77)
        sigma2 = 0.3
        K = interference_covariance(H, sigma2, {1})
        ref = sigma2 * np.eye(4, dtype=complex)
        for k in (0, 2, 3):
            ref += np.outer(H[:, k], H[:, k].conj())
        assert np.max(np.abs(K - ref)) < 1e-14

    def test_hermitian_positive_definite(self):
        H = draw_channel(5, 6, 3)
        K = interference_covariance(H, 0.05, {0, 3})
        assert np.max(np.abs(K - K.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(K)[0] > 0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            interference_covariance(np.eye(2), 1.0, {2})


class TestGaussianIdentities:
    """Scalar complex-Gaussian identities used by the kernel derivations."""

    @staticmethod
    def draws(rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mu1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mu2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s1 = rng.uniform(0.1, 3.0, n)
        s2 = rng.uniform(0.1, 3.0, n)
        return x, mu1, mu2, s1, s2

    def test_symmetry_and_shift(self, rng):
        x, mu, _, s, _ = self.draws(rng, 1000)
        base = cn_pdf(x, mu, s)
        assert np.allclose(cn_pdf(mu, x, s), base, rtol=1e-10)
        assert np.allclose(cn_pdf(x - mu, 0.0, s), base, rtol=1e-10)
        assert np.allclose(cn_pdf(mu - x, 0.0, s), base, rtol=1e-10)

    def test_affine_argument_change(self, rng):
        # density of a scaled-shifted argument picks up the |a|^2 Jacobian
        x, mu, _, s, _ = self.draws(rng, 1000)
        a = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        lhs = cn_pdf(a * x + b, mu, s)
        rhs = cn_pdf(x, (mu - b) / a, s / np.abs(a) ** 2) / np.abs(a) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_product_identity(self, rng):
        x, mu1, mu2, s1, s2 = self.draws(rng, 1000)
        lhs = cn_pdf(x, mu1, s1) * cn_pdf(x, mu2, s2)
        w1, w2 = 1 / s1, 1 / s2
        comb = cn_pdf(x, (w1 * mu1 + w2 * mu2) / (w1 + w2), 1 / (w1 + w2))
        rhs = comb * cn_pdf(mu1, mu2, s1 + s2)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_convolution_identity_by_quadrature(self, rng):
        for seed in range(4):
            g = np.random.default_rng(seed)
            mu1 = g.standard_normal() + 1j * g.standard_normal()
            mu2 = g.standard_normal() + 1j * g.standard_normal()
            s1, s2 = g.uniform(0.3, 1.5, 2)
            sig = np.sqrt(max(s1, s2))
            z, dA = quad_grid((mu1 + mu2) / 2, sig, points=400, span=8.0)
            integral = np.sum(cn_pdf(z, mu1, s1) * cn_pdf(z, mu2, s2)) * dA
            assert integral == pytest.approx(cn_pdf(mu1, mu2, s1 + s2), abs=1e-4)

    def test_downdate_scaling_identity(self):
        # removing one more column rescales the filtered row by 1/(1 + quadratic form)
        H = draw_channel(4, 4, 5)
        sigma2 = 0.4
        for phi, j in (((), 2), ((1,), 3), ((0, 2), 1)):
            K_phi = interference_covariance(H, sigma2, phi)
            K_aug = interference_covariance(H, sigma2, tuple(phi) + (j,))
            hj = H[:, j]
            row_aug = hj.conj() @ np.linalg.inv(K_aug)
            lhs = row_aug / (1 + (row_aug @ hj).real)
            rhs = hj.conj() @ np.linalg.inv(K_phi)
            assert np.max(np.abs(lhs - rhs)) < 1e-10
