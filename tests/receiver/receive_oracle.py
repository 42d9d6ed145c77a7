"""The receive chain's previous expressions: references for byte equality.

``filter_signal``, ``complex_awgn``, ``transmit_batch``'s exact noise add
and ``fm_demodulate``'s exact discriminator used to be written as the
expressions below: an ``fftconvolve`` over a delay-padded copy, a
complex noise temporary, and ``np.where`` + ``np.angle`` +
``concatenate``. The library computes the same numbers without the
repeated work and copies; tests and the receive-chain benchmark check
that it does so byte for byte.

The second half keeps the 1-D receive chain (stereo decode, receive and
the phone and car output effects) that the stacked kernels replaced;
the library runs one waveform as a batch of one and must match it.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.channel.link import batched_rf_snr_db
from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ, PILOT_FREQ_HZ
from repro.dsp.filters import bandpass_fir, design_lowpass_fir
from repro.dsp.pll import PhaseLockedLoop
from repro.dsp.resample import resample_by_ratio
from repro.fm.pilot import detect_pilot
from repro.fm.stereo import StereoAudio, decode_mono
from repro.receiver.car import CarReceiver
from repro.receiver.fm_receiver import FMReceiver, ReceivedAudio
from repro.receiver.smartphone import SmartphoneReceiver
from repro.utils.rand import as_generator
from repro.utils.validation import ensure_positive, ensure_real


def filter_signal(taps: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """FIR filtering as ``fftconvolve`` over a delay-padded copy, trimmed.

    Single-precision signals run with float32 taps; every other real
    input is filtered in float64.
    """
    signal = np.asarray(signal)
    if not np.iscomplexobj(signal) and signal.dtype != np.float32:
        signal = signal.astype(float)
    taps = np.asarray(taps, dtype=float)
    if signal.dtype in (np.float32, np.complex64):
        taps = taps.astype(np.float32)
    delay = (taps.size - 1) // 2
    pad = np.zeros(signal.shape[:-1] + (delay,), dtype=signal.dtype)
    padded = np.concatenate([signal, pad], axis=-1)
    kernel = taps if signal.ndim == 1 else taps[np.newaxis, :]
    filtered = sp_signal.fftconvolve(padded, kernel, mode="full", axes=-1)
    return filtered[..., delay : delay + signal.shape[-1]]


def complex_awgn(iq: np.ndarray, snr_db: float, rng) -> np.ndarray:
    """Complex AWGN as ``iq.astype(complex) + scale * (a + 1j * b)``."""
    iq = np.asarray(iq)
    if not np.iscomplexobj(iq):
        iq = iq.astype(float)
    gen = as_generator(rng)
    power = float(np.mean(np.abs(iq) ** 2))
    noise_power = power / (10.0 ** (snr_db / 10.0))
    scale = np.sqrt(noise_power / 2.0)
    noise = scale * (gen.standard_normal(iq.size) + 1j * gen.standard_normal(iq.size))
    return iq.astype(complex) + noise


def transmit_batch(iq: np.ndarray, budgets, rngs, envelopes=None) -> np.ndarray:
    """``transmit_batch``'s exact path with its complex noise stack."""
    iq = np.asarray(iq)
    n_rows = len(budgets)
    snr_db = batched_rf_snr_db(budgets)
    clean = iq.astype(complex)
    out = np.empty((n_rows, iq.size), dtype=complex)
    if envelopes is None or all(env is None for env in envelopes):
        out[:] = clean
        power = np.float64(np.mean(np.abs(iq) ** 2))
    else:
        for row in range(n_rows):
            env = envelopes[row]
            if env is None:
                out[row] = clean
            else:
                np.multiply(clean, np.asarray(env), out=out[row])
        power = np.mean(np.abs(out) ** 2, axis=-1)
    noise_power = power / np.array([10.0 ** (float(snr) / 10.0) for snr in snr_db])
    scales = np.sqrt(noise_power / 2.0)
    draws = np.empty((n_rows, 2, iq.size))
    for row, rng in enumerate(rngs):
        gen = as_generator(rng)
        gen.standard_normal(out=draws[row, 0])
        gen.standard_normal(out=draws[row, 1])
    noise = draws[:, 0] + 1j * draws[:, 1]
    noise *= np.asarray(scales).reshape(n_rows, 1)
    out += noise
    return out


def fm_demodulate(iq: np.ndarray, sample_rate: float, deviation_hz: float) -> np.ndarray:
    """The exact discriminator as ``np.where`` + ``np.angle`` + ``concatenate``."""
    iq = np.asarray(iq)
    magnitude = np.abs(iq)
    floor = 1e-12 * np.max(magnitude, axis=-1, keepdims=True)
    safe = np.where(magnitude > floor, iq, floor)
    if safe.ndim == 1:
        increments = np.angle(safe[1:] * np.conj(safe[:-1]))
    else:
        increments = np.empty(safe.shape[:-1] + (safe.shape[-1] - 1,), magnitude.dtype)
        for row in range(safe.shape[0]):
            increments[row] = np.angle(safe[row, 1:] * np.conj(safe[row, :-1]))
    inst_freq = increments * sample_rate / (2.0 * np.pi)
    if inst_freq.shape[-1] == 0:
        return np.zeros(iq.shape[:-1] + (1,))
    inst_freq = np.concatenate([inst_freq[..., :1], inst_freq], axis=-1)
    return inst_freq / deviation_hz


# --- The 1-D receive chain ---------------------------------------------------
#
# ``decode_stereo``, ``FMReceiver.receive`` and the phone and car output
# effects used to be written a second time for one waveform, beside the
# stacked kernels. The library now runs a single waveform as a batch of
# one; these are the old 1-D bodies, with ``self`` spelled ``receiver``.


def decode_stereo(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    force_stereo: bool = False,
) -> StereoAudio:
    """The 1-D stereo decode: pilot gate, scalar PLL, L-R matrix."""
    mpx = ensure_real(mpx, "mpx")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    audio_rate = ensure_positive(audio_rate, "audio_rate")

    mono = decode_mono(mpx, mpx_rate, audio_rate)

    has_pilot = detect_pilot(mpx, mpx_rate)
    if not (has_pilot or force_stereo):
        return StereoAudio(left=mono, right=mono.copy(), stereo_locked=False, audio_rate=audio_rate)

    pilot_band = filter_signal(bandpass_fir(18.5e3, 19.5e3, mpx_rate, 1025), mpx)
    decimation = 5
    decimated_rate = mpx_rate / decimation
    pll = PhaseLockedLoop(PILOT_FREQ_HZ, decimated_rate, loop_bandwidth_hz=30.0)
    track = pll.track(pilot_band[::decimation])
    if not (track.locked or force_stereo):
        return StereoAudio(left=mono, right=mono.copy(), stereo_locked=False, audio_rate=audio_rate)

    sample_positions = np.arange(mpx.size) / decimation
    phase_full = np.interp(
        sample_positions, np.arange(track.phase.size), track.phase
    )
    carrier38 = np.cos(2.0 * phase_full)
    stereo_band = filter_signal(bandpass_fir(23e3, 53e3, mpx_rate, 513), mpx)
    # Synchronous AM detection; factor 2 undoes the 1/2 from the product.
    diff_mpx = 2.0 * stereo_band * carrier38
    diff_mpx = filter_signal(design_lowpass_fir(15e3, mpx_rate, 513), diff_mpx)
    diff = resample_by_ratio(diff_mpx, mpx_rate, audio_rate)

    n = min(mono.size, diff.size)
    left = mono[:n] + diff[:n]
    right = mono[:n] - diff[:n]
    return StereoAudio(left=left, right=right, stereo_locked=True, audio_rate=audio_rate)


def receive(receiver: FMReceiver, iq: np.ndarray) -> ReceivedAudio:
    """The 1-D receive: demodulate, mono or stereo decode, output effects."""
    mpx = fm_demodulate(iq, receiver.mpx_rate, receiver.deviation_hz)
    if receiver.stereo_capable:
        decoded: StereoAudio = decode_stereo(mpx, receiver.mpx_rate, receiver.audio_rate)
        left = receiver._post_process(decoded.left)
        right = receiver._post_process(decoded.right)
        stereo_locked = decoded.stereo_locked
    else:
        left = receiver._post_process(
            decode_mono(mpx, receiver.mpx_rate, receiver.audio_rate)
        )
        right = left.copy()
        stereo_locked = False
    return apply_output_effects(
        receiver,
        ReceivedAudio(
            left=left,
            right=right,
            stereo_locked=stereo_locked,
            mpx=mpx,
            audio_rate=receiver.audio_rate,
        ),
    )


def apply_output_effects(receiver: FMReceiver, received: ReceivedAudio) -> ReceivedAudio:
    """The per-receiver 1-D effects: car cabin path, phone AGC + codec, or none.

    Left precedes right, so each receiver's generator draws in that order.
    """
    if isinstance(receiver, CarReceiver):
        effect = _acoustic_path
    elif isinstance(receiver, SmartphoneReceiver):
        effect = _finalize
    else:
        return received
    return ReceivedAudio(
        left=effect(receiver, received.left),
        right=effect(receiver, received.right),
        stereo_locked=received.stereo_locked,
        mpx=received.mpx,
        audio_rate=received.audio_rate,
    )


def _acoustic_path(receiver: CarReceiver, audio: np.ndarray) -> np.ndarray:
    """Speaker -> cabin -> microphone: band-limit plus engine noise."""
    # Speakers and mic pass ~60 Hz - 12 kHz.
    shaped = filter_signal(
        bandpass_fir(60.0, min(12e3, receiver.audio_rate / 2 * 0.9), receiver.audio_rate, 257),
        audio,
    )
    signal_power = float(np.mean(shaped**2))
    if signal_power <= 0:
        return shaped
    # Engine noise is low-frequency dominated: shape white noise down.
    noise = receiver._rng.standard_normal(shaped.size)
    noise = filter_signal(design_lowpass_fir(400.0, receiver.audio_rate, 129), noise)
    noise += 0.1 * receiver._rng.standard_normal(shaped.size)
    noise_power = float(np.mean(noise**2))
    target_noise_power = signal_power / (10.0 ** (receiver.cabin_noise_snr_db / 10.0))
    noise *= np.sqrt(target_noise_power / max(noise_power, 1e-30))
    return shaped + noise


def _finalize(receiver: SmartphoneReceiver, audio: np.ndarray) -> np.ndarray:
    """The phone's recording chain: AGC (static or dynamic), codec noise."""
    if receiver.agc_enabled:
        if receiver.agc_dynamic:
            audio = receiver._agc.apply(audio)
        else:
            audio = receiver._agc.static_gain(audio) * audio
    if receiver.codec_noise_db is not None:
        noise_rms = 10.0 ** (receiver.codec_noise_db / 20.0)
        audio = audio + noise_rms * receiver._rng.standard_normal(audio.size)
    return audio
