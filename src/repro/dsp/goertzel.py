"""Goertzel tone-power estimation.

The paper's receiver is a non-coherent FSK detector: it compares received
power at candidate tone frequencies and picks the strongest (section 3.4).
The Goertzel algorithm computes power at a single frequency in O(N) without
an FFT, matching the paper's emphasis on computational simplicity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, DemodulationError, SignalError
from repro.utils.validation import ensure_positive, ensure_real, ensure_real_signal


def goertzel_power(signal: np.ndarray, freq_hz: float, sample_rate: float) -> float:
    """Power of ``signal`` at a single frequency.

    Args:
        signal: real 1-D block (one symbol's worth of samples).
        freq_hz: analysis frequency; need not be an exact DFT bin.
        sample_rate: sample rate of ``signal``.

    Returns:
        Squared magnitude of the DTFT of the block at ``freq_hz``,
        normalized by block length so different block sizes are comparable.
    """
    return float(goertzel_power_many(signal, [freq_hz], sample_rate)[0])


def goertzel_power_many(
    signal: np.ndarray, freqs_hz: Sequence[float], sample_rate: float
) -> np.ndarray:
    """Power of one block at several frequencies: the one-row case of
    :func:`goertzel_power_blocks`.

    Returns:
        Array of powers, one per frequency, in the order given.
    """
    signal = ensure_real(signal, "signal")
    return goertzel_power_blocks(signal[None, :], freqs_hz, sample_rate)[0]


def goertzel_power_blocks(
    blocks: np.ndarray, freqs_hz: Sequence[float], sample_rate: float
) -> np.ndarray:
    """Power of every row of ``blocks`` at every frequency, in one projection.

    A receiver reshapes a reception to ``(n_symbols, samples_per_symbol)``
    and detects all its symbols with one call.

    Args:
        blocks: real ``(n_blocks, n)`` array, one block per row.
        freqs_hz: iterable of analysis frequencies within [0, Nyquist].
        sample_rate: sample rate of the blocks.

    Returns:
        ``(n_blocks, n_freqs)`` array of ``|DTFT|^2 / n`` per block and
        frequency.
    """
    blocks = ensure_real_signal(blocks, "blocks")
    if blocks.ndim != 2:
        raise SignalError(f"blocks must be 2-D, got shape {blocks.shape}")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    freqs = np.asarray(list(freqs_hz), dtype=float)
    if freqs.size == 0:
        raise ConfigurationError("freqs_hz must contain at least one frequency")
    if not np.all((freqs >= 0) & (freqs <= sample_rate / 2)):
        raise ConfigurationError(
            f"all frequencies must lie within [0, Nyquist={sample_rate / 2}], got {freqs}"
        )
    n = blocks.shape[1]
    omegas = 2.0 * np.pi * freqs / sample_rate
    # A direct DTFT projection, not the Goertzel recursion: the two agree
    # to rounding. Real blocks meet the exponentials' real and imaginary
    # rows in one real einsum, not threaded BLAS, whose worker hand-off
    # stalled products this small for milliseconds on a contended 2-vCPU host.
    phases = np.exp(-1j * np.outer(omegas, np.arange(n)))
    proj = np.einsum("bn,fn->bf", blocks, np.concatenate([phases.real, phases.imag]))
    return np.abs(proj[:, : freqs.size] + 1j * proj[:, freqs.size :]) ** 2 / n


def symbol_blocks(audio: np.ndarray, n_symbols: int, sps: int) -> np.ndarray:
    """The first ``n_symbols`` symbols of ``audio`` as ``(n_symbols, sps)`` rows.

    Raises:
        ConfigurationError: if ``n_symbols < 1``.
        SignalError: if ``audio`` is not real and 1-D, or holds a
            non-finite sample in those symbols (a broken chain, which
            would otherwise decide tone 0 and read as a plausible BER).
        DemodulationError: if ``audio`` is shorter than ``n_symbols`` symbols.
    """
    audio = ensure_real(audio, "audio")
    if n_symbols < 1:
        raise ConfigurationError(f"need at least one symbol, got {n_symbols}")
    if audio.size < n_symbols * sps:
        raise DemodulationError(f"audio has {audio.size} samples, need {n_symbols * sps}")
    blocks = audio[: n_symbols * sps].reshape(n_symbols, sps)
    if not np.all(np.isfinite(blocks)):
        raise SignalError("audio must be finite over the detected symbols")
    return blocks
