"""Thermal noise and AWGN injection."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rand import RngLike, as_generator
from repro.utils.validation import ensure_1d, ensure_positive

BOLTZMANN_J_PER_K = 1.380649e-23
ROOM_TEMPERATURE_K = 290.0


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power kTB (+ receiver noise figure) in dBm.

    Args:
        bandwidth_hz: noise bandwidth (an FM channel is ~200 kHz).
        noise_figure_db: receiver noise figure added on top of kTB.
    """
    bandwidth_hz = ensure_positive(bandwidth_hz, "bandwidth_hz")
    ktb_w = BOLTZMANN_J_PER_K * ROOM_TEMPERATURE_K * bandwidth_hz
    return 10.0 * np.log10(ktb_w / 1e-3) + float(noise_figure_db)


def awgn(signal: np.ndarray, snr_db: float, rng: RngLike = None) -> np.ndarray:
    """Add real white Gaussian noise for a target SNR relative to the
    signal's own measured power."""
    signal = ensure_1d(signal, "signal")
    gen = as_generator(rng)
    power = float(np.mean(np.abs(signal) ** 2))
    noise_power = power / (10.0 ** (snr_db / 10.0))
    noise = np.sqrt(noise_power) * gen.standard_normal(signal.size)
    return signal + noise


def complex_awgn(iq: np.ndarray, snr_db: float, rng: RngLike = None) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise at a target SNR.

    The SNR is defined against the measured power of ``iq``; noise power is
    split equally between I and Q.
    """
    iq = ensure_1d(iq, "iq")
    gen = as_generator(rng)
    power = float(np.mean(np.abs(iq) ** 2))
    noise_power = power / (10.0 ** (snr_db / 10.0))
    scale = np.sqrt(noise_power / 2.0)
    noise = complex_noise(iq.size, [scale], [gen])[0]
    return np.add(iq, noise, out=noise)


def complex_noise(
    n_samples: int, scales: Sequence[float], rngs: Sequence[RngLike]
) -> np.ndarray:
    """Rows of ``scale * (a + 1j * b)``, one per generator.

    ``a`` then ``b`` are two ``standard_normal(n_samples)`` fills from the
    row's generator, so each row is exactly the noise (and the rounding)
    :func:`complex_awgn` adds. The draws land in one preallocated
    ``(rows, 2, n_samples)`` buffer and are scaled straight into the
    real and imaginary parts of the result, so no complex temporary is
    built.

    Args:
        n_samples: samples per row.
        scales: per-row noise standard deviation per quadrature.
        rngs: one seed/Generator per row.

    Returns:
        Complex128 array of shape ``(len(rngs), n_samples)``.
    """
    rows = len(rngs)
    draws = np.empty((rows, 2, n_samples))
    for row, rng in enumerate(rngs):
        gen = as_generator(rng)
        gen.standard_normal(out=draws[row, 0])
        gen.standard_normal(out=draws[row, 1])
    scales = np.asarray(scales, dtype=float).reshape(rows, 1)
    for row in np.flatnonzero(scales == 0):
        # A silent row's noise is signed zeros, and the complex product
        # takes their signs from both draws: re = a*0 - b*0,
        # im = a*0 + b*0.
        a, b = draws[row] * 0.0
        draws[row] = a - b, a + b
    noise = np.empty((rows, n_samples), dtype=complex)
    np.multiply(draws[:, 0], scales, out=noise.real)
    np.multiply(draws[:, 1], scales, out=noise.imag)
    return noise
