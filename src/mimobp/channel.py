"""Channel, constellation and transmit-side signal generation.

The system model is y = H x + n with an N x M complex channel H (N >= M),
unit-energy data symbols (E[x x^H] = I) and circularly-symmetric noise of
per-dimension variance sigma2 (E[n n^H] = sigma2 * I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelInstance:
    """One realisation of the linear model: channel matrix plus noise power."""

    H: np.ndarray
    sigma2: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        object.__setattr__(self, "H", H)
        n_rx, n_tx = H.shape
        if not (n_rx >= n_tx >= 1):
            raise ValueError(f"need N >= M >= 1, got N={n_rx}, M={n_tx}")
        if not np.isfinite(H).all():
            raise ValueError("channel entries must be finite")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")

    @property
    def n_rx(self):
        return self.H.shape[0]

    @property
    def n_tx(self):
        return self.H.shape[1]


# Half-width of the band around a level midpoint, in units of
# (peak + |x|^2) / spacing, inside which Constellation.slice_hard defers to
# argmin. There the np.abs distances to the two points either side differ by
# at least ``spacing * gap / |d|``, and their rounding by at most about
# 3 * 2^-52 |d|, so a gap above 6 * 2^-52 (peak + |x|^2) / spacing keeps
# them apart; 2^-40 leaves a margin of 2^9.
_GRID_GUARD = 2.0 ** -40


@dataclass(frozen=True)
class _Grid:
    """Per-axis slicing tables of a constellation whose points are a product
    of real and imaginary levels.

    ``bounds_*`` holds an axis's level midpoints and, between them, the
    centre of each inner cell, so a ``searchsorted`` index k names both the
    cell and the nearer of its two midpoints, ``nearest_*[k]``. ``table``
    maps the pair of indices to the point.
    """

    bounds_re: np.ndarray
    bounds_im: np.ndarray
    nearest_re: np.ndarray
    nearest_im: np.ndarray
    table: np.ndarray
    guard: float  # _GRID_GUARD / smallest level spacing
    peak: float  # largest |point|^2


def _axis(levels):
    """(bounds, cell by searchsorted index, nearest midpoint by index)."""
    mids = (levels[:-1] + levels[1:]) / 2
    bounds = np.empty(2 * mids.size - 1)
    bounds[0::2] = mids
    bounds[1::2] = (mids[:-1] + mids[1:]) / 2
    k = np.arange(bounds.size + 1)
    return bounds, (k + 1) // 2, mids[np.minimum(k // 2, mids.size - 1)]


def _product_grid(points):
    """The _Grid of ``points``, or None when they are not a product grid of
    at least two levels on each axis."""
    levels_re, row = np.unique(points.real, return_inverse=True)
    levels_im, col = np.unique(points.imag, return_inverse=True)
    if min(levels_re.size, levels_im.size) < 2 or levels_re.size * levels_im.size != points.size:
        return None
    table = np.full((levels_re.size, levels_im.size), -1, dtype=np.intp)
    table[row, col] = np.arange(points.size)
    if (table < 0).any():
        return None
    bounds_re, cell_re, nearest_re = _axis(levels_re)
    bounds_im, cell_im, nearest_im = _axis(levels_im)
    spacing = min(np.diff(levels_re).min(), np.diff(levels_im).min())
    return _Grid(bounds_re, bounds_im, nearest_re, nearest_im,
                 table[cell_re[:, None], cell_im], _GRID_GUARD / spacing,
                 float(np.max(np.abs(points) ** 2)))


@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite symbol alphabet with bit labels and a prior pmf.

    Points carry unit average energy under the prior, matching the
    unit-symbol-power assumption of the system model.
    """

    name: str
    points: np.ndarray
    bits_per_symbol: int
    bit_labels: np.ndarray  # (size, bits_per_symbol) array of 0/1
    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))
        object.__setattr__(self, "bit_labels", np.asarray(self.bit_labels, dtype=np.uint8))
        object.__setattr__(self, "prior", np.asarray(self.prior, dtype=float))
        size = 2 ** self.bits_per_symbol
        if self.points.shape != (size,):
            raise ValueError("need exactly 2^m points")
        if self.bit_labels.shape != (size, self.bits_per_symbol):
            raise ValueError("bit_labels shape mismatch")
        # each check is written so that NaN fails it
        if not np.isfinite(self.points).all():
            raise ValueError("points must be finite")
        if not (np.isfinite(self.prior).all() and (self.prior >= 0).all()):
            raise ValueError("prior must be finite and non-negative")
        if not abs(self.prior.sum() - 1.0) <= 1e-15:
            raise ValueError("prior must sum to 1")
        energy = float(np.sum(self.prior * np.abs(self.points) ** 2))
        if not abs(energy - 1.0) <= 1e-12:
            raise ValueError(f"average symbol energy must be 1, got {energy}")
        object.__setattr__(self, "_grid", _product_grid(self.points))

    @property
    def size(self):
        return self.points.shape[0]

    def uniform_prior(self) -> bool:
        return bool(np.allclose(self.prior, 1.0 / self.size, atol=1e-12))

    def bits_for(self, indices):
        """Flat bit sequence for a vector of point indices."""
        return self.bit_labels[np.asarray(indices)].reshape(-1)

    def indices_from_bits(self, bits):
        """Inverse of bits_for: recover point indices from a flat bit vector."""
        m = self.bits_per_symbol
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1, m)
        weights = 1 << np.arange(m - 1, -1, -1)
        keys = bits @ weights
        lut = np.empty(self.size, dtype=np.int64)
        lut[self.bit_labels @ weights] = np.arange(self.size)
        return lut[keys]

    def slice_hard(self, values):
        """Nearest-point indices for arbitrary complex values.

        The index of the point nearest each value by ``np.abs`` distance,
        ties to the lowest index: equal, value by value, to
        ``argmin(abs(values[..., None] - points), axis=-1)``.

        On a product grid (QPSK, QAM16) each axis is sliced on its own, by a
        ``searchsorted`` against its level midpoints. A value goes to the
        ``argmin`` instead when it is not finite, or when either axis lies
        within ``2^-40 (P + |x|^2) / s`` of a level midpoint, P the largest
        point energy and s the smallest level spacing. Inside that band
        rounding could make two ``np.abs`` distances equal, and ``argmin``
        takes the lower index; as |x| grows the band covers whole cells,
        which sends every very large value to ``argmin``. Every value goes
        to ``argmin`` when the points are not a product grid.
        """
        values = np.asarray(values)
        grid = self._grid
        if grid is None:
            return self._nearest(values)
        # contiguous copies: each pass below runs faster than on strided views
        re, im = np.ascontiguousarray(values.real), np.ascontiguousarray(values.imag)
        k_re = np.searchsorted(grid.bounds_re, re)
        k_im = np.searchsorted(grid.bounds_im, im)
        hard = grid.table[k_re, k_im]
        with np.errstate(over="ignore"):  # an |x|^2 that overflows gives an infinite band
            band = re * re
            band += im * im
            band += grid.peak
            band *= grid.guard
        # not (gap > band), so a NaN gap or band falls back too
        safe = np.abs(re - grid.nearest_re[k_re]) > band
        safe &= np.abs(im - grid.nearest_im[k_im]) > band
        if not safe.all():
            loose = ~safe
            hard[loose] = self._nearest(values.reshape(re.shape)[loose])
        return hard.reshape(values.shape)[()]

    def _nearest(self, values):
        return np.argmin(np.abs(values[..., None] - self.points), axis=-1)


@dataclass(frozen=True)
class TransmitRecord:
    """One channel use: drawn symbols, their bits, and the received vector."""

    indices: np.ndarray
    x: np.ndarray
    bits: np.ndarray
    y: np.ndarray


def _bit_rows(m):
    rows = np.arange(2 ** m, dtype=np.uint32)
    return ((rows[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def qpsk() -> Constellation:
    """Gray-labelled QPSK with unit energy and uniform prior.

    The first bit selects the sign of the real part, the second the sign of
    the imaginary part, so angular neighbours differ in exactly one bit.
    """
    labels = _bit_rows(2)
    re = 1.0 - 2.0 * labels[:, 0]
    im = 1.0 - 2.0 * labels[:, 1]
    points = (re + 1j * im) / np.sqrt(2.0)
    return Constellation("QPSK", points, 2, labels, np.full(4, 0.25))


_GRAY2 = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}


def qam16() -> Constellation:
    """Gray-labelled 16QAM on levels {-3,-1,1,3}/sqrt(10), uniform prior.

    Bits 0-1 Gray-select the in-phase level, bits 2-3 the quadrature level;
    neighbouring levels differ in a single bit on each axis.
    """
    labels = _bit_rows(4)
    re = np.array([_GRAY2[(b[0], b[1])] for b in labels])
    im = np.array([_GRAY2[(b[2], b[3])] for b in labels])
    points = (re + 1j * im) / np.sqrt(10.0)
    return Constellation("QAM16", points, 4, labels, np.full(16, 1.0 / 16.0))


def get_constellation(name: str) -> Constellation:
    key = name.strip().upper()
    if key == "QPSK":
        return qpsk()
    if key in ("QAM16", "16QAM"):
        return qam16()
    raise ValueError(f"unknown constellation {name!r}")


# Stream layout: id k of a stream is 64-bit word _ID_WORD + k of its Philox
# counter, and the words below count the draws within the stream.
_ID_WORD = 2


def _stream_counter(ids) -> int:
    """Philox counter at the start of stream ``ids``."""
    counter = 0
    for k, v in enumerate(ids):
        v = int(v)
        if not 0 <= v < 2 ** 64:
            raise ValueError("stream ids must fit in 64 bits")
        counter += v << (64 * (_ID_WORD + k))
    return counter


def trial_rng(seed, *ids) -> np.random.Generator:
    """Independent counter-based stream for (seed, ids...).

    Built on Philox so that every (seed, trial) pair owns a disjoint counter
    range; trials can therefore run in any order or partitioning and still
    reproduce bit-identically.
    """
    return np.random.Generator(np.random.Philox(key=int(seed), counter=_stream_counter(ids)))


def consecutive_streams(g: np.random.Generator, first, count, *rest):
    """Iterator that moves ``g`` through ``count`` consecutive trial streams.

    ``g`` draws from a Philox keyed by ``seed``, such as
    ``trial_rng(seed, first, *rest)``. Before yielding b it is moved to the
    start of stream (seed, first + b, *rest), so its draws until the next step
    equal those of a fresh ``trial_rng(seed, first + b, *rest)``: Philox is
    counter-based and a stream is just its counter. Every id is checked here,
    before the iterator is returned, with ``trial_rng``'s ``ValueError``.

    The state is built once, and each step sets one counter word and assigns
    it. It holds plain Python ints, not numpy arrays: the state setter reads
    the counter, key and buffer one element at a time, and each read of a
    numpy array makes a numpy scalar, which made the setter three times
    slower.
    """
    counter = _stream_counter((first, *rest))
    if count > 0:
        _stream_counter((first + count - 1, *rest))
    words = [(counter >> s) & (2 ** 64 - 1) for s in range(0, 256, 64)]
    bg = g.bit_generator
    state = bg.state
    state.update(buffer=state["buffer"].tolist(), buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"] = {"counter": words, "key": state["state"]["key"].tolist()}

    def steps():
        for b in range(count):
            words[_ID_WORD] = first + b
            bg.state = state
            yield b

    return steps()


def draw_channel(n_tx, n_rx, rng) -> np.ndarray:
    """i.i.d. CN(0, 1) channel matrix of shape (n_rx, n_tx).

    Real and imaginary parts are each N(0, 1/2); with a fixed seed the draw
    is bit-identical across runs. ``rng`` is a Generator, drawn from in
    place, or any seed that ``np.random.default_rng`` takes.
    """
    if not (n_rx >= n_tx >= 1):
        raise ValueError(f"need N >= M >= 1, got N={n_rx}, M={n_tx}")
    g = np.random.default_rng(rng)
    return (g.standard_normal((n_rx, n_tx)) + 1j * g.standard_normal((n_rx, n_tx))) / np.sqrt(2.0)


def transmit(channel: ChannelInstance, constellation: Constellation, rng) -> TransmitRecord:
    """Draw symbols per the constellation prior, add noise, return y = Hx + n.
    ``rng`` is taken as ``draw_channel`` takes it."""
    g = np.random.default_rng(rng)
    m = channel.n_tx
    indices = g.choice(constellation.size, size=m, p=constellation.prior)
    x = constellation.points[indices]
    scale = np.sqrt(channel.sigma2 / 2.0)
    noise = scale * (g.standard_normal(channel.n_rx) + 1j * g.standard_normal(channel.n_rx))
    y = channel.H @ x + noise
    return TransmitRecord(indices=indices, x=x, bits=constellation.bits_for(indices), y=y)
