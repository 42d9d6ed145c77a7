"""Receive chain vs its previous expressions: byte equality on generated inputs.

``receive_oracle`` keeps the expressions ``filter_signal``,
``complex_awgn``, ``transmit_batch`` and the exact ``fm_demodulate``
used before they stopped copying and repeating work, and the 1-D stereo
decode, receive and output effects that the stacked kernels replaced.
Every output here must match them byte for byte, dtype and shape
included, for a batch of one and for every row of a wider batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import receive_oracle as oracle
from repro.channel.link import LinkBudget, transmit_batch
from repro.channel.noise import complex_awgn
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.dsp.plan_cache import PLAN_CACHE_ENV_VAR, clear_plan_cache
from repro.audio.tones import tone
from repro.constants import AUDIO_RATE_HZ
from repro.fm.demodulator import fm_demodulate
from repro.fm.modulator import fm_modulate
from repro.fm.mpx import MpxComponents, compose_mpx
from repro.fm.stereo import decode_stereo, decode_stereo_batch
from repro.receiver.car import CarReceiver
from repro.receiver.fm_receiver import FMReceiver, ReceivedAudio, receive_batch
from repro.receiver.smartphone import SmartphoneReceiver
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

    def test_complex64_stack_rows_match_the_1d_call(self):
        iq = _waveform(np.random.default_rng(6), (3, 256), np.complex64)
        stack = fm_demodulate(iq)
        for row in range(3):
            assert_same_bytes(stack[row], fm_demodulate(iq[row]))


# --- The 1-D receive chain -------------------------------------------------


def _program_mpx(rng, n_audio, pilot):
    """An MPX of random tones: stereo (pilot present) or mono (no pilot)."""
    def channel():
        return tone(float(rng.uniform(200.0, 12_000.0)), n_audio / AUDIO_RATE_HZ,
                    AUDIO_RATE_HZ, amplitude=float(rng.uniform(0.05, 0.9)))

    right = channel() if pilot else None
    return compose_mpx(MpxComponents(left=channel(), right=right))


def _envelopes(seed, rows, n_audio, pilot, channel):
    """``rows`` received envelopes of one program, each with its own noise.

    ``channel="silent"`` is an unmodulated carrier with no noise: it
    demodulates to all-zero audio, so the car's cabin path draws nothing.
    """
    rng = np.random.default_rng(seed)
    if channel == "silent":
        return np.ones((rows, n_audio * 10), dtype=complex)
    iq = fm_modulate(_program_mpx(rng, n_audio, pilot))
    return np.stack(
        [complex_awgn(iq, float(rng.uniform(0.0, 40.0)), seed + 1 + row) for row in range(rows)]
    )


AGC_MODES = ["off", "static", "dynamic"]
CODEC_NOISE = [None, -60.0, -30.0]


def _build(kind, stereo, deemphasis, agc, codec_noise_db, seed):
    """One receiver; ``agc`` and ``codec_noise_db`` only shape the phone."""
    if kind == "car":
        return CarReceiver(rng=seed, cabin_noise_snr_db=float(10 + seed % 40))
    if kind == "phone":
        rx = SmartphoneReceiver(
            agc_enabled=agc != "off",
            agc_dynamic=agc == "dynamic",
            codec_noise_db=codec_noise_db,
            rng=seed,
        )
        rx.stereo_capable = stereo
        rx.apply_deemphasis = deemphasis
        return rx
    return FMReceiver(stereo_capable=stereo, apply_deemphasis=deemphasis)


def assert_same_reception(ours, reference):
    for field in ("left", "right", "mpx"):
        assert_same_bytes(getattr(ours, field), getattr(reference, field))
    assert ours.stereo_locked == reference.stereo_locked
    assert ours.audio_rate == reference.audio_rate


@pytest.mark.skipif(fast_numerics(), reason="exact receive chain only")
class TestReceive:
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["fm", "phone", "car"]),
        stereo=st.booleans(),
        deemphasis=st.booleans(),
        agc=st.lists(st.sampled_from(AGC_MODES), min_size=3, max_size=3),
        codec_noise_db=st.lists(st.sampled_from(CODEC_NOISE), min_size=3, max_size=3),
        rows=st.sampled_from([1, 3]),
        n_audio=st.integers(200, 3000),
        pilot=st.booleans(),
        channel=st.sampled_from(["noisy", "noisy", "silent"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_1d_receive(
        self, seed, kind, stereo, deemphasis, agc, codec_noise_db, rows, n_audio, pilot, channel
    ):
        # Rows of one batch share the DSP configuration but not the
        # phone's AGC mode or codec noise, nor any generator.
        if kind == "car":
            stereo, deemphasis = True, False
        iq = _envelopes(seed, rows, n_audio, pilot, channel)

        def receivers():
            return [
                _build(kind, stereo, deemphasis, agc[i], codec_noise_db[i], seed + i)
                for i in range(rows)
            ]

        references = [oracle.receive(rx, iq[i]) for i, rx in enumerate(receivers())]
        for ours, reference in zip(receive_batch(receivers(), iq), references):
            assert_same_reception(ours, reference)
        first = receivers()[0]
        assert_same_reception(first.receive(iq[0]), references[0])

    def test_a_long_stereo_row_locks_for_phone_and_car(self):
        iq = _envelopes(7, 1, 24_000, pilot=True, channel="noisy")[0]
        for kind in ("phone", "car"):
            ours = _build(kind, True, False, "static", -60.0, 3).receive(iq)
            reference = oracle.receive(_build(kind, True, False, "static", -60.0, 3), iq)
            assert ours.stereo_locked
            assert_same_reception(ours, reference)


@pytest.mark.skipif(fast_numerics(), reason="per-row draws are an exact-mode contract")
class TestOutputEffects:
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["phone", "car"]),
        agc=st.lists(st.sampled_from(AGC_MODES), min_size=4, max_size=4),
        codec_noise_db=st.lists(st.sampled_from(CODEC_NOISE), min_size=4, max_size=4),
        rows=st.integers(1, 4),
        n=st.integers(1, 2000),
        silent=st.lists(st.sampled_from(["none", "left", "right", "both"]), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_1d_effects(self, seed, kind, agc, codec_noise_db, rows, n, silent):
        rng = np.random.default_rng(seed)
        received = []
        for i in range(rows):
            left, right = rng.standard_normal((2, n)) * rng.uniform(1e-3, 2.0)
            if silent[i] in ("left", "both"):
                left = np.zeros(n)
            if silent[i] in ("right", "both"):
                right = np.zeros(n)
            received.append(
                ReceivedAudio(left=left, right=right, stereo_locked=bool(i % 2),
                              mpx=rng.standard_normal(10 * n), audio_rate=AUDIO_RATE_HZ)
            )

        def receivers():
            return [
                _build(kind, True, False, agc[i], codec_noise_db[i], seed + i)
                for i in range(rows)
            ]

        batch = receivers()
        ours = type(batch[0]).apply_output_effects_batch(batch, received)
        for i, rx in enumerate(receivers()):
            assert_same_reception(ours[i], oracle.apply_output_effects(rx, received[i]))

    def test_one_receiver_on_two_rows_draws_in_row_order(self):
        # The same generator feeding two rows draws row 0's left and
        # right, then row 1's, as two 1-D calls in a row would.
        rng = np.random.default_rng(0)
        received = [
            ReceivedAudio(left=x[0], right=x[1], stereo_locked=False,
                          mpx=np.zeros(10), audio_rate=AUDIO_RATE_HZ)
            for x in rng.standard_normal((2, 2, 500))
        ]
        for kind in ("phone", "car"):
            rx = _build(kind, True, False, "dynamic", -40.0, 9)
            ours = type(rx).apply_output_effects_batch([rx, rx], received)
            reference = _build(kind, True, False, "dynamic", -40.0, 9)
            for row, audio in zip(ours, received):
                assert_same_reception(row, oracle.apply_output_effects(reference, audio))


class TestDecodeStereo:
    @given(
        seed=st.integers(0, 2**16),
        rows=st.sampled_from([1, 3]),
        n_audio=st.integers(100, 3000),
        pilot=st.lists(st.booleans(), min_size=3, max_size=3),
        noise=st.sampled_from([0.0, 0.01, 0.3]),
        force_stereo=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_the_1d_decode(self, seed, rows, n_audio, pilot, noise, force_stereo):
        rng = np.random.default_rng(seed)
        mpx = np.stack(
            [
                _program_mpx(rng, n_audio, pilot[i]) + noise * rng.standard_normal(10 * n_audio)
                for i in range(rows)
            ]
        )
        batch = decode_stereo_batch(mpx, force_stereo=force_stereo)
        for i in range(rows):
            reference = oracle.decode_stereo(mpx[i], force_stereo=force_stereo)
            for ours in (batch[i], decode_stereo(mpx[i], force_stereo=force_stereo)):
                assert_same_bytes(ours.left, reference.left)
                assert_same_bytes(ours.right, reference.right)
                assert ours.stereo_locked == reference.stereo_locked
                assert ours.audio_rate == reference.audio_rate
