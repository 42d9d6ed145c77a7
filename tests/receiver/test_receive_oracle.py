"""Receive chain vs its previous expressions: byte equality on generated inputs.

``receive_oracle`` keeps the expressions ``filter_signal``,
``complex_awgn``, ``transmit_batch`` and the exact ``fm_demodulate``
used before they stopped copying and repeating work. Every output here
must match them byte for byte, dtype and shape included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import receive_oracle as oracle
from repro.channel.link import LinkBudget, transmit_batch
from repro.channel.noise import complex_awgn
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.dsp.plan_cache import PLAN_CACHE_ENV_VAR, clear_plan_cache
from repro.fm.demodulator import fm_demodulate
from repro.utils.env import fast_numerics

DTYPES = [np.float64, np.complex128, np.float32, np.complex64]


def assert_same_bytes(ours, reference):
    assert ours.dtype == reference.dtype
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


def _waveform(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


class TestFilterSignal:
    @given(
        seed=st.integers(0, 2**16),
        n=st.one_of(st.integers(1, 4), st.integers(5, 2000)),
        rows=st.sampled_from([None, 1, 3]),
        n_taps=st.sampled_from([1, 3, 5, 31, 129, 257, 513]),
        dtype=st.sampled_from(DTYPES),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_fftconvolve(self, seed, n, rows, n_taps, dtype):
        rng = np.random.default_rng(seed)
        shape = (n,) if rows is None else (rows, n)
        x = _waveform(rng, shape, dtype)
        taps = rng.standard_normal(n_taps)
        assert_same_bytes(filter_signal(taps, x), oracle.filter_signal(taps, x))
        # Second call: the kernel spectrum now comes from the plan cache.
        assert_same_bytes(filter_signal(taps, x), oracle.filter_signal(taps, x))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_designed_taps_on_a_long_row(self, dtype):
        taps = design_lowpass_fir(15_000.0, 192_000.0, 1025)
        x = _waveform(np.random.default_rng(3), (48_000,), dtype)
        assert_same_bytes(filter_signal(taps, x), oracle.filter_signal(taps, x))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(64,), (2, 64)])
    def test_dtype_carries_through(self, dtype, shape):
        x = _waveform(np.random.default_rng(0), shape, dtype)
        assert filter_signal(design_lowpass_fir(5_000.0, 48_000.0, 33), x).dtype == dtype

    def test_uncached_spectra_give_the_same_bytes(self, monkeypatch):
        taps = design_lowpass_fir(5_000.0, 48_000.0, 129)
        x = _waveform(np.random.default_rng(1), (2, 3000), np.float64)
        cached = filter_signal(taps, x)
        monkeypatch.setenv(PLAN_CACHE_ENV_VAR, "0")
        clear_plan_cache()
        assert_same_bytes(filter_signal(taps, x), cached)


def _with_zeros(x, rng, zero_fraction, negative_zeros):
    """``x`` with a fraction of its samples set to exact (signed) zeros."""
    mask = rng.random(x.shape) < zero_fraction
    x = x.copy()
    x[mask] = -0.0 if negative_zeros else 0.0
    return x


class TestComplexAwgn:
    @given(
        seed=st.integers(0, 2**16),
        n=st.one_of(st.integers(1, 4), st.integers(5, 3000)),
        complex_iq=st.booleans(),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        negative_zeros=st.booleans(),
        snr_db=st.floats(-30.0, 60.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_complex_temporaries(
        self, seed, n, complex_iq, zero_fraction, negative_zeros, snr_db
    ):
        rng = np.random.default_rng(seed)
        iq = _waveform(rng, (n,), np.complex128 if complex_iq else np.float64)
        iq = _with_zeros(iq, rng, zero_fraction, negative_zeros)
        assert_same_bytes(
            complex_awgn(iq, snr_db, seed + 1), oracle.complex_awgn(iq, snr_db, seed + 1)
        )

    def test_complex64_input_returns_complex128(self):
        iq = _waveform(np.random.default_rng(2), (100,), np.complex64)
        assert_same_bytes(complex_awgn(iq, 10.0, 4), oracle.complex_awgn(iq, 10.0, 4))


@pytest.mark.skipif(fast_numerics(), reason="exact transmit path only")
class TestTransmitBatch:
    @given(
        seed=st.integers(0, 2**16),
        n=st.one_of(st.integers(1, 4), st.integers(5, 1500)),
        rows=st.integers(1, 4),
        fading=st.sampled_from(["none", "some", "all", "silent"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_complex_noise_stack(self, seed, n, rows, fading):
        rng = np.random.default_rng(seed)
        iq = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        budgets = [
            LinkBudget(
                ambient_power_at_device_dbm=float(rng.uniform(-70.0, -10.0)),
                distance_ft=float(rng.uniform(1.0, 30.0)),
            )
            for _ in range(rows)
        ]
        envelopes = None
        if fading != "none":
            envelopes = [rng.uniform(0.0, 2.0, n) for _ in range(rows)]
            if fading == "some":
                envelopes[0] = None
            if fading == "silent":
                envelopes[-1] = np.zeros(n)
        seeds = [seed + 1 + row for row in range(rows)]
        assert_same_bytes(
            transmit_batch(iq, budgets, seeds, envelopes),
            oracle.transmit_batch(iq, budgets, seeds, envelopes),
        )


@pytest.mark.skipif(fast_numerics(), reason="exact discriminator only")
class TestFmDemodulate:
    @given(
        seed=st.integers(0, 2**16),
        n=st.one_of(st.integers(1, 4), st.integers(5, 3000)),
        rows=st.sampled_from([None, 1, 3]),
        dtype=st.sampled_from([np.complex128, np.complex64]),
        zero_fraction=st.sampled_from([0.0, 0.05, 0.5]),
        tiny=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_where_angle_concatenate(
        self, seed, n, rows, dtype, zero_fraction, tiny
    ):
        rng = np.random.default_rng(seed)
        shape = (n,) if rows is None else (rows, n)
        iq = _waveform(rng, shape, np.complex128)
        iq = _with_zeros(iq, rng, zero_fraction, negative_zeros=False)
        if tiny:
            # Samples below the 1e-12 relative limiter floor, but non-zero.
            iq[..., ::3] *= 1e-14
        iq[..., 0] = 1.0  # every waveform carries signal
        iq = iq.astype(dtype)
        assert_same_bytes(
            fm_demodulate(iq, 192_000.0, 75_000.0),
            oracle.fm_demodulate(iq, 192_000.0, 75_000.0),
        )

    def test_one_dimensional_complex64_stays_float32(self):
        iq = _waveform(np.random.default_rng(5), (256,), np.complex64)
        assert fm_demodulate(iq).dtype == np.float32
