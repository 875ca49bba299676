import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimobp import (ChannelInstance, Constellation, draw_channel, get_constellation,
                    qam16, qpsk, transmit, trial_rng)
from mimobp.channel import consecutive_streams


class TestDrawChannel:
    def test_deterministic_given_seed(self):
        a = draw_channel(4, 4, 123)
        b = draw_channel(4, 4, 123)
        assert np.array_equal(a, b)

    def test_unit_power_entries(self):
        h = draw_channel(1000, 1000, np.random.default_rng(1)).ravel()
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_circular_symmetry(self):
        h = draw_channel(1000, 1000, np.random.default_rng(2)).ravel()
        assert np.mean(h.real * h.imag) == pytest.approx(0.0, abs=0.01)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            draw_channel(4, 2, 0)


def test_a_generator_is_drawn_from_in_place():
    """``draw_channel`` and ``transmit`` draw from a Generator they are
    given, not from a copy: two calls on it draw what the same two calls
    draw on a twin, and the second call's draw follows the first's."""
    g, twin = np.random.default_rng(8), np.random.default_rng(8)
    ch = ChannelInstance(H=draw_channel(3, 4, g), sigma2=0.3)
    c = qam16()
    first, second = transmit(ch, c, g), transmit(ch, c, g)
    assert np.array_equal(ch.H, draw_channel(3, 4, twin))
    for rec in (first, second):
        again = transmit(ch, c, twin)
        assert np.array_equal(rec.indices, again.indices) and np.array_equal(rec.y, again.y)
    assert not np.array_equal(first.y, second.y)
    assert np.array_equal(draw_channel(2, 2, g), draw_channel(2, 2, twin))


class TestConstellations:
    @pytest.mark.parametrize("c", [qpsk(), qam16()])
    def test_prior_and_energy(self, c):
        assert abs(c.prior.sum() - 1.0) <= 1e-15
        assert abs(np.sum(c.prior * np.abs(c.points) ** 2) - 1.0) <= 1e-12

    def test_qpsk_points(self):
        c = qpsk()
        expect = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        assert {complex(np.round(p * np.sqrt(2), 9)) for p in c.points} == expect
        assert c.bits_per_symbol == 2

    def test_qpsk_gray_adjacency(self):
        c = qpsk()
        by_angle = np.argsort(np.angle(c.points))
        for k in range(4):
            a, b = by_angle[k], by_angle[(k + 1) % 4]
            assert int(np.sum(c.bit_labels[a] != c.bit_labels[b])) == 1

    def test_qam16_levels_and_gray(self):
        c = qam16()
        levels = np.unique(np.round(c.points.real * np.sqrt(10), 9))
        assert np.allclose(levels, [-3, -1, 1, 3])
        # neighbouring levels on each axis differ in exactly one bit
        for axis, bits in ((np.real, c.bit_labels[:, :2]), (np.imag, c.bit_labels[:, 2:])):
            vals = np.round(axis(c.points) * np.sqrt(10)).astype(int)
            lab = {}
            for v, b in zip(vals, map(tuple, bits)):
                lab.setdefault(v, set()).add(b)
            assert all(len(s) == 1 for s in lab.values())
            seq = [next(iter(lab[v])) for v in (-3, -1, 1, 3)]
            for a, b in zip(seq, seq[1:]):
                assert sum(x != y for x, y in zip(a, b)) == 1

    def test_nan_point_is_refused(self):
        c = qpsk()
        with pytest.raises(ValueError, match="points must be finite"):
            Constellation("bad", np.r_[c.points[:3], np.nan], 2, c.bit_labels, c.prior)

    def test_nan_prior_is_refused(self):
        c = qpsk()
        with pytest.raises(ValueError, match="prior must be finite"):
            Constellation("bad", c.points, 2, c.bit_labels, [0.5, 0.5, np.nan, 0.0])

    def test_negative_prior_is_refused(self):
        """This prior sums to 1 and gives the QPSK points unit energy."""
        c = qpsk()
        with pytest.raises(ValueError, match="non-negative"):
            Constellation("bad", c.points, 2, c.bit_labels, [0.75, 0.75, -0.5, 0.0])

    def test_get_constellation(self):
        assert get_constellation("qpsk").name == "QPSK"
        assert get_constellation("16QAM").name == "QAM16"
        with pytest.raises(ValueError):
            get_constellation("BPSK")

    @given(st.integers(0, 2 ** 32), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_bits_roundtrip(self, seed, m):
        c = qam16()
        idx = np.random.default_rng(seed).integers(0, c.size, m)
        assert np.array_equal(c.indices_from_bits(c.bits_for(idx)), idx)


def _rotated_qpsk():
    c = qpsk()
    return Constellation("QPSK-rot", c.points * np.exp(0.3j), 2, c.bit_labels, c.prior)


def _argmin_slice(c, values):
    values = np.asarray(values)
    return np.argmin(np.abs(values[..., None] - c.points), axis=-1)


def _midpoints(c):
    mids = []
    for axis in (c.points.real, c.points.imag):
        levels = np.unique(axis)
        mids.extend((levels[:-1] + levels[1:]) / 2)
    return np.unique(mids)


def _slicer_probes(c):
    """Values where slicing each axis on its own could part from argmin."""
    g = np.random.default_rng(8)
    probes = [s * (g.standard_normal(500) + 1j * g.standard_normal(500))
              for s in (1e-300, 1e-6, 0.3, 1.0, 4.0, 1e4, 1e8, 1e150, 1e300)]
    tiny = np.concatenate([np.logspace(-300, -12, 15), [1e-9, 1e-6, 1e-3]])
    mids = _midpoints(c)[:, None]
    on_axis = np.concatenate([(mids + np.concatenate([[0.0, -0.0], tiny, -tiny])).ravel(),
                              (mids + np.arange(-3, 4) * np.spacing(mids)).ravel()])
    for other in (0.0, -0.0, 0.1, 3.0, -3.0, 1e8, -1e8, 1e16):
        probes += [on_axis + 1j * other, other + 1j * on_axis]
    # a small offset from a midpoint and a large other axis: np.abs rounds
    # the distances to the points either side equal
    for other in (1e4, 1e6, 1e8, 1e9):
        near = (mids + np.linspace(-1, 1, 41) * other ** 2 * 2.0 ** -40).ravel()
        probes += [near + 1j * other, other + 1j * near]
    special = (np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, 1e308, -1.7e308)
    probes.append(np.array([complex(a, b) for a in special for b in special]))
    return np.concatenate([np.ravel(p) for p in probes])


class TestSliceHard:
    """Constellation.slice_hard against the full nearest-point search."""

    CONSTELLATIONS = [qpsk(), qam16(), _rotated_qpsk()]

    def test_only_product_grids_slice_per_axis(self):
        assert qpsk()._grid is not None and qam16()._grid is not None
        assert _rotated_qpsk()._grid is None

    def test_probes_hold_rounding_ties(self):
        c = qpsk()
        x = -1e-9 + 1e8j  # nearer point 2, at negative real part, than point 0
        d = np.abs(x - c.points)
        assert d[0] == d[2] and _argmin_slice(c, x) == 0
        assert np.any(_slicer_probes(c) == x)

    @pytest.mark.parametrize("c", CONSTELLATIONS, ids=lambda c: c.name)
    def test_equals_argmin_value_by_value(self, c):
        probes = _slicer_probes(c)
        shaped = [probes, probes[7], probes[11:23].reshape(3, 4),
                  probes[:2048].reshape(4, 512).T,  # non-contiguous, as LMMSE's xhat
                  probes[:2049].reshape(3, 683)[:, ::2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in shaped:
                want = _argmin_slice(c, values)
                got = c.slice_hard(values)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert got.dtype == want.dtype
                mismatch = np.flatnonzero(np.ravel(got != want))
                assert mismatch.size == 0, np.ravel(values)[mismatch[:5]]

    @pytest.mark.parametrize("c", CONSTELLATIONS, ids=lambda c: c.name)
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_argmin_on_drawn_values(self, c, data):
        axis = st.one_of(st.floats(), st.builds(lambda m, d: m + d, st.sampled_from(_midpoints(c)),
                                                st.floats(-1e-12, 1e-12)))
        values = np.array(data.draw(st.lists(st.builds(complex, axis, axis), min_size=1,
                                             max_size=40)))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            want = _argmin_slice(c, values)
        with warnings.catch_warnings():
            if not seen:  # silent under argmin, so silent here too
                warnings.simplefilter("error")
            assert np.array_equal(c.slice_hard(values), want)


class TestTransmit:
    def test_noiseless_limit(self):
        ch = ChannelInstance(H=draw_channel(4, 4, 9), sigma2=1e-30)
        rec = transmit(ch, qpsk(), 5)
        assert np.max(np.abs(rec.y - ch.H @ rec.x)) < 1e-12

    def test_zero_channel(self):
        ch = ChannelInstance(H=np.zeros((3, 2)), sigma2=0.5)
        rec = transmit(ch, qpsk(), 6)
        # y equals the drawn noise alone: re-check via reconstruction
        assert np.allclose(rec.y, rec.y - ch.H @ rec.x)

    def test_deterministic(self):
        ch = ChannelInstance(H=draw_channel(3, 4, 1), sigma2=0.2)
        a = transmit(ch, qam16(), 42)
        b = transmit(ch, qam16(), 42)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.bits, b.bits)

    def test_bits_reencode_to_symbols(self):
        c = qam16()
        ch = ChannelInstance(H=draw_channel(4, 4, 2), sigma2=0.2)
        rec = transmit(ch, c, 7)
        assert np.array_equal(c.indices_from_bits(rec.bits), rec.indices)
        assert np.array_equal(c.points[c.indices_from_bits(rec.bits)], rec.x)

    def test_received_power_budget(self):
        # E|y|^2 / N = M + sigma2 when H entries are unit-power i.i.d.
        m = n = 4
        sigma2 = 0.5
        c = qpsk()
        g = np.random.default_rng(3)
        total = 0.0
        trials = 20000
        for _ in range(trials):
            ch = ChannelInstance(H=draw_channel(m, n, g), sigma2=sigma2)
            rec = transmit(ch, c, g)
            total += np.sum(np.abs(rec.y) ** 2) / n
        assert total / trials == pytest.approx(m + sigma2, rel=0.02)


class TestTrialRng:
    def test_streams_are_reproducible_and_distinct(self):
        a1 = trial_rng(7, 3, 1).standard_normal(8)
        a2 = trial_rng(7, 3, 1).standard_normal(8)
        b = trial_rng(7, 4, 1).standard_normal(8)
        c = trial_rng(7, 3, 2).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_id_range_checked(self):
        with pytest.raises(ValueError):
            trial_rng(1, -1)

    @pytest.mark.parametrize("first, count, rest", [(0, 3, (2,)), (2 ** 64 - 3, 3, (1,)),
                                                    (5, 2, (2 ** 64 - 1,))])
    def test_consecutive_streams_start_afresh_from_a_used_generator(self, first, count, rest):
        """Each stream equals a fresh trial_rng draw, though the generator
        holds half a word of uint32s and a part-used buffer of doubles on
        entry and before every step."""
        g = trial_rng(11, first, *rest)

        def use(gen):
            words = gen.integers(0, 2 ** 32, size=1, dtype=np.uint32)
            doubles = gen.random(5)
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
            return words, doubles

        use(g)
        steps = 0
        for b in consecutive_streams(g, first, count, *rest):
            fresh = trial_rng(11, first + b, *rest)
            assert np.array_equal(g.standard_normal(7), fresh.standard_normal(7))
            for got, want in zip(use(g), use(fresh)):
                assert np.array_equal(got, want)
            steps += 1
        assert steps == count
