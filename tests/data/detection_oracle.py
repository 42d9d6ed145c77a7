"""Per-symbol tone detection: the reference loops for block detection.

The modems detect a whole reception with one ``goertzel_power_blocks``
projection. These loops are the detectors they replaced — one
``goertzel_power_many`` call per BFSK symbol, or per FDM-4FSK symbol and
group — kept so tests and the tone-detection benchmark can check that
the block path decides the same bits and reports the same powers.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FDM_NUM_GROUPS
from repro.data.bits import symbols_to_bits
from repro.data.fdm import BITS_PER_GROUP, BITS_PER_SYMBOL
from repro.dsp.goertzel import goertzel_power_many


def fdm_demodulate(modem, audio: np.ndarray, n_bits: int) -> np.ndarray:
    """FDM-4FSK bits, one 4-tone detection per symbol and group."""
    sps = modem.samples_per_symbol
    symbols = np.empty(n_bits // BITS_PER_SYMBOL, dtype=int)
    for i in range(symbols.size):
        block = audio[i * sps : (i + 1) * sps]
        symbol = 0
        for group in range(FDM_NUM_GROUPS):
            powers = goertzel_power_many(
                block, modem.group_tones_hz(group), modem.sample_rate
            )
            shift = BITS_PER_GROUP * (FDM_NUM_GROUPS - 1 - group)
            symbol |= int(np.argmax(powers)) << shift
        symbols[i] = symbol
    return symbols_to_bits(symbols, BITS_PER_SYMBOL)


def fsk_soft_powers(modem, audio: np.ndarray, n_bits: int) -> np.ndarray:
    """BFSK (P_zero, P_one) per symbol, one detection per symbol."""
    sps = modem.samples_per_symbol
    freqs = (modem.freq_zero_hz, modem.freq_one_hz)
    out = np.empty((n_bits, 2))
    for i in range(n_bits):
        out[i] = goertzel_power_many(audio[i * sps : (i + 1) * sps], freqs, modem.sample_rate)
    return out


def fsk_demodulate(modem, audio: np.ndarray, n_bits: int) -> np.ndarray:
    """BFSK bits: the larger of the two tone powers, symbol by symbol."""
    bits = np.empty(n_bits, dtype=int)
    for i, powers in enumerate(fsk_soft_powers(modem, audio, n_bits)):
        bits[i] = int(np.argmax(powers))
    return bits
