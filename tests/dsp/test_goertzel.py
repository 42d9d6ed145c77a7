"""Goertzel tone-power tests, including an FFT cross-check property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.goertzel import goertzel_power, goertzel_power_blocks, goertzel_power_many
from repro.errors import ConfigurationError, SignalError

FS = 48_000.0


class TestGoertzelPower:
    def test_detects_tone(self):
        n = 4800
        x = np.cos(2 * np.pi * 1000 * np.arange(n) / FS)
        on = goertzel_power(x, 1000, FS)
        off = goertzel_power(x, 3000, FS)
        assert on > 1000 * max(off, 1e-12)

    def test_amplitude_relation(self):
        # For amplitude A and integer cycles: power = A^2 * n / 4.
        n = 4800
        a = 0.5
        x = a * np.cos(2 * np.pi * 1000 * np.arange(n) / FS)
        assert goertzel_power(x, 1000, FS) == pytest.approx(a**2 * n / 4, rel=1e-6)

    def test_rejects_freq_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            goertzel_power(np.zeros(10), 30_000, FS)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_matches_fft_bin(self, k):
        # On exact DFT bins Goertzel equals the FFT magnitude squared / n.
        n = 480
        rng = np.random.default_rng(k)
        x = rng.standard_normal(n)
        freq = k * FS / n
        expected = np.abs(np.fft.rfft(x)[k]) ** 2 / n
        assert goertzel_power(x, freq, FS) == pytest.approx(expected, rel=1e-9)

    @given(
        st.integers(min_value=2, max_value=960),
        st.floats(min_value=0.0, max_value=FS / 2),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_goertzel_recursion(self, n, freq, seed):
        # The projection is a direct DTFT, off-bin frequencies included; the
        # second-order Goertzel recursion must give the same power.
        x = np.random.default_rng(seed).standard_normal(n)
        coeff = 2.0 * np.cos(2.0 * np.pi * freq / FS)
        s1 = s2 = 0.0
        for sample in x:
            s1, s2 = sample + coeff * s1 - s2, s1
        recursion = (s1 * s1 + s2 * s2 - coeff * s1 * s2) / n
        # Near DC and Nyquist the recursion's terms grow large and cancel;
        # its rounding error scales with them, not with the power.
        scale = (s1 * s1 + s2 * s2 + abs(coeff * s1 * s2)) / n
        assert goertzel_power(x, freq, FS) == pytest.approx(recursion, rel=1e-6, abs=1e-12 * scale)


class TestGoertzelMany:
    def test_matches_single(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(960)
        freqs = [800.0, 1600.0, 2400.0]
        many = goertzel_power_many(x, freqs, FS)
        singles = [goertzel_power(x, f, FS) for f in freqs]
        assert np.allclose(many, singles)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            goertzel_power_many(np.zeros(10), [], FS)

    def test_fsk_discrimination(self):
        # The paper's 8/12 kHz pair must be clearly separable in a 10 ms
        # symbol (the 100 bps design).
        n = 480
        x = np.cos(2 * np.pi * 8000 * np.arange(n) / FS)
        powers = goertzel_power_many(x, (8000.0, 12000.0), FS)
        assert powers[0] > 100 * powers[1]


class TestGoertzelBlocks:
    def test_rejects_1d(self):
        with pytest.raises(SignalError):
            goertzel_power_blocks(np.zeros(10), [1000.0], FS)

    def test_rejects_complex(self):
        with pytest.raises(SignalError):
            goertzel_power_blocks(np.zeros((2, 10), dtype=complex), [1000.0], FS)

    def test_rejects_empty_freqs(self):
        with pytest.raises(ConfigurationError):
            goertzel_power_blocks(np.zeros((2, 10)), [], FS)


ENTRY_POINTS = {
    "single": lambda freq: goertzel_power(np.zeros(10), freq, FS),
    "many": lambda freq: goertzel_power_many(np.zeros(10), [1000.0, freq], FS),
    "blocks": lambda freq: goertzel_power_blocks(np.zeros((3, 10)), [freq, 1000.0], FS),
}


class TestFrequencyValidation:
    """Every entry point rejects NaN and out-of-band frequencies (a NaN
    compares False against both Nyquist bounds, so it needs a positive
    in-band check rather than two out-of-band ones)."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("freq", [np.nan, -1.0, FS / 2 + 1.0, np.inf])
    def test_rejects(self, entry, freq):
        with pytest.raises(ConfigurationError):
            ENTRY_POINTS[entry](freq)

    def test_band_edges_accepted(self):
        powers = goertzel_power_many(np.ones(10), [0.0, FS / 2], FS)
        assert powers[0] == pytest.approx(10.0)
