import numpy as np
import pytest

from mimobp import ChannelInstance, draw_channel, qam16, qpsk


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def qpsk_const():
    return qpsk()


@pytest.fixture
def qam16_const():
    return qam16()


def random_channel(m, n, sigma2, seed):
    return ChannelInstance(H=draw_channel(m, n, seed), sigma2=sigma2)


def diagonal_channel(m, sigma2, seed):
    g = np.random.default_rng(seed)
    d = (g.standard_normal(m) + 1j * g.standard_normal(m)) / np.sqrt(2)
    return ChannelInstance(H=np.diag(d), sigma2=sigma2)


def received(channel, constellation, seed):
    g = np.random.default_rng(seed)
    idx = g.integers(0, constellation.size, channel.n_tx)
    x = constellation.points[idx]
    noise = np.sqrt(channel.sigma2 / 2) * (
        g.standard_normal(channel.n_rx) + 1j * g.standard_normal(channel.n_rx))
    return idx, x, channel.H @ x + noise


def interference_covariance(H, sigma2, excluded):
    """sigma2 I + sum of h_k h_k^H over the columns k not in ``excluded``:
    the covariance a conditional filter treats as noise, formed explicitly
    as an independent reference for the QR-based filters."""
    n_rx, n_tx = H.shape
    if not set(excluded) <= set(range(n_tx)):
        raise ValueError(f"excluded indices {sorted(excluded)} outside 0..{n_tx - 1}")
    keep = [k for k in range(n_tx) if k not in excluded]
    return sigma2 * np.eye(n_rx) + H[:, keep] @ H[:, keep].conj().T
