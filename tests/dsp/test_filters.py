"""FIR design and filtering tests."""

import numpy as np
import pytest

from repro.dsp.filters import (
    bandpass_fir,
    design_lowpass_fir,
    filter_signal,
    highpass_fir,
)
from repro.errors import ConfigurationError

FS = 48_000.0


def tone(freq, n=4800, fs=FS):
    return np.cos(2 * np.pi * freq * np.arange(n) / fs)


def gain_at(taps, freq, fs=FS):
    x = tone(freq)
    y = filter_signal(taps, x)
    # Steady-state gain: compare RMS in the middle of the block.
    mid = slice(len(x) // 4, 3 * len(x) // 4)
    return np.sqrt(np.mean(y[mid] ** 2)) / np.sqrt(np.mean(x[mid] ** 2))


class TestLowpassDesign:
    def test_unity_dc_gain(self):
        taps = design_lowpass_fir(5000, FS)
        assert np.sum(taps) == pytest.approx(1.0)

    def test_passband_flat(self):
        taps = design_lowpass_fir(5000, FS, 257)
        assert gain_at(taps, 1000) == pytest.approx(1.0, abs=0.02)

    def test_stopband_attenuates(self):
        taps = design_lowpass_fir(5000, FS, 257)
        assert gain_at(taps, 15000) < 0.01

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(30_000, FS)

    def test_rejects_even_taps(self):
        with pytest.raises(ConfigurationError):
            design_lowpass_fir(5000, FS, 256)


class TestHighpass:
    def test_blocks_dc(self):
        taps = highpass_fir(5000, FS, 257)
        y = filter_signal(taps, np.ones(4800))
        assert np.max(np.abs(y[1000:3000])) < 0.01

    def test_passes_high(self):
        taps = highpass_fir(5000, FS, 257)
        assert gain_at(taps, 15000) == pytest.approx(1.0, abs=0.05)


class TestBandpass:
    def test_passes_center(self):
        taps = bandpass_fir(8000, 12000, FS, 257)
        assert gain_at(taps, 10000) == pytest.approx(1.0, abs=0.05)

    def test_blocks_outside(self):
        taps = bandpass_fir(8000, 12000, FS, 257)
        assert gain_at(taps, 2000) < 0.02
        assert gain_at(taps, 20000) < 0.02

    def test_rejects_inverted_band(self):
        with pytest.raises(ConfigurationError):
            bandpass_fir(12000, 8000, FS)


class TestFilterSignal:
    def test_group_delay_compensated(self):
        # An impulse should come out centered at its own position.
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.zeros(1000)
        x[500] = 1.0
        y = filter_signal(taps, x)
        assert np.argmax(y) == 500

    def test_output_length_matches(self):
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.random.default_rng(0).standard_normal(777)
        assert filter_signal(taps, x).size == 777

    def test_complex_input_supported(self):
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.exp(1j * 2 * np.pi * 1000 * np.arange(2000) / FS)
        y = filter_signal(taps, x)
        assert np.iscomplexobj(y)
        mid = slice(500, 1500)
        assert np.mean(np.abs(y[mid])) == pytest.approx(1.0, abs=0.05)

    def test_rejects_even_taps(self):
        with pytest.raises(ConfigurationError):
            filter_signal(np.ones(4), np.ones(10))

    @pytest.mark.parametrize("shape", [(600,), (3, 600)])
    def test_float32_stays_single_precision(self, shape):
        taps = design_lowpass_fir(5000, FS, 101)
        x = np.random.default_rng(1).standard_normal(shape)
        y32 = filter_signal(taps, x.astype(np.float32))
        assert y32.dtype == np.float32
        assert filter_signal(taps, x).dtype == np.float64
        np.testing.assert_allclose(y32, filter_signal(taps, x), atol=1e-5)

    def test_other_real_dtypes_still_promote_to_float64(self):
        taps = design_lowpass_fir(5000, FS, 101)
        assert filter_signal(taps, np.arange(50, dtype=np.int16)).dtype == np.float64
        assert filter_signal(taps, np.ones(50, dtype=np.float16)).dtype == np.float64
