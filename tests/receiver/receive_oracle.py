"""The receive chain's previous expressions: references for byte equality.

``filter_signal``, ``complex_awgn``, ``transmit_batch``'s exact noise add
and ``fm_demodulate``'s exact discriminator used to be written as the
expressions below: an ``fftconvolve`` over a delay-padded copy, a
complex noise temporary, and ``np.where`` + ``np.angle`` +
``concatenate``. The library computes the same numbers without the
repeated work and copies; tests and the receive-chain benchmark check
that it does so byte for byte.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.channel.link import batched_rf_snr_db
from repro.utils.rand import as_generator


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
    noise_power = power / (10.0 ** (snr_db / 10.0))
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
        increments = np.empty(safe.shape[:-1] + (safe.shape[-1] - 1,))
        for row in range(safe.shape[0]):
            increments[row] = np.angle(safe[row, 1:] * np.conj(safe[row, :-1]))
    inst_freq = increments * sample_rate / (2.0 * np.pi)
    if inst_freq.shape[-1] == 0:
        return np.zeros(iq.shape[:-1] + (1,))
    inst_freq = np.concatenate([inst_freq[..., :1], inst_freq], axis=-1)
    return inst_freq / deviation_hz
