"""Block tone detection: equivalence with the per-symbol loops, and the
input checks every reception now passes through."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detection_oracle import fdm_demodulate, fsk_demodulate, fsk_soft_powers
from repro.channel.noise import awgn
from repro.data.bits import random_bits
from repro.data.fdm import BITS_PER_SYMBOL, FdmFskModem
from repro.data.fsk import BinaryFskModem
from repro.dsp.goertzel import goertzel_power_blocks, goertzel_power_many
from repro.errors import ConfigurationError, SignalError

MODEMS = {
    "fdm200": lambda: FdmFskModem(symbol_rate=200),
    "fdm400": lambda: FdmFskModem(symbol_rate=400),
    "bfsk100": BinaryFskModem,
}


def _is_fdm(modem):
    return isinstance(modem, FdmFskModem)


def _bits_per_symbol(modem):
    return BITS_PER_SYMBOL if _is_fdm(modem) else 1


def _oracle(modem):
    return fdm_demodulate if _is_fdm(modem) else fsk_demodulate


def _reception(modem, n_bits, seed, snr_db, extra):
    """A noisy reception of ``n_bits`` random bits with ``extra`` trailing
    noise samples past the last symbol."""
    bits = random_bits(n_bits, rng=seed)
    audio = awgn(modem.modulate(bits), snr_db, rng=seed + 1)
    tail = np.random.default_rng(seed + 2).standard_normal(extra)
    return bits, np.concatenate([audio, tail])


reception_params = given(
    name=st.sampled_from(sorted(MODEMS)),
    n_symbols=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    snr_db=st.sampled_from([-10.0, -3.0, 0.0, 6.0, 30.0]),
    extra=st.integers(min_value=0, max_value=700),
)


class TestMatchesPerSymbolOracle:
    @reception_params
    @settings(max_examples=40, deadline=None)
    def test_bits(self, name, n_symbols, seed, snr_db, extra):
        modem = MODEMS[name]()
        n_bits = n_symbols * _bits_per_symbol(modem)
        _, audio = _reception(modem, n_bits, seed, snr_db, extra)
        detected = modem.demodulate(audio, n_bits)
        assert detected.shape == (n_bits,)
        assert np.array_equal(detected, _oracle(modem)(modem, audio, n_bits))

    @pytest.mark.parametrize("name", sorted(MODEMS))
    def test_silence_ties_like_oracle(self, name):
        # Every tone power is exactly zero: ties resolve to the first tone.
        modem = MODEMS[name]()
        audio = np.zeros(48_000)
        assert np.array_equal(modem.demodulate(audio, 16), _oracle(modem)(modem, audio, 16))

    @reception_params
    @settings(max_examples=30, deadline=None)
    def test_block_powers(self, name, n_symbols, seed, snr_db, extra):
        modem = MODEMS[name]()
        _, audio = _reception(modem, n_symbols * _bits_per_symbol(modem), seed, snr_db, extra)
        sps = modem.samples_per_symbol
        blocks = audio[: n_symbols * sps].reshape(n_symbols, sps)
        tones = modem.tones_hz if _is_fdm(modem) else (modem.freq_zero_hz, modem.freq_one_hz)
        powers = goertzel_power_blocks(blocks, tones, modem.sample_rate)
        expected = np.array([goertzel_power_many(row, tones, modem.sample_rate) for row in blocks])
        assert powers.shape == expected.shape == (n_symbols, len(tones))
        assert np.allclose(powers, expected, rtol=1e-12, atol=0)

    @given(
        n_bits=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        snr_db=st.sampled_from([-10.0, 0.0, 20.0]),
        extra=st.integers(min_value=0, max_value=700),
    )
    @settings(max_examples=30, deadline=None)
    def test_fsk_soft_powers(self, n_bits, seed, snr_db, extra):
        modem = BinaryFskModem()
        _, audio = _reception(modem, n_bits, seed, snr_db, extra)
        powers = modem.soft_powers(audio, n_bits)
        assert np.allclose(powers, fsk_soft_powers(modem, audio, n_bits), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(MODEMS))
class TestReceptionChecks:
    @pytest.mark.parametrize("n_bits", [0, -8, -16])
    def test_rejects_non_positive_n_bits(self, name, n_bits):
        with pytest.raises(ConfigurationError):
            MODEMS[name]().demodulate(np.zeros(48_000), n_bits)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_audio(self, name, bad):
        modem = MODEMS[name]()
        audio = np.zeros(48_000)
        audio[100] = bad
        with pytest.raises(SignalError):
            modem.demodulate(audio, 16)

    def test_all_nan_audio_is_an_error_not_a_ber(self, name):
        with pytest.raises(SignalError):
            MODEMS[name]().demodulate(np.full(48_000, np.nan), 16)

    def test_non_finite_tail_past_the_symbols_is_ignored(self, name):
        modem = MODEMS[name]()
        bits, audio = _reception(modem, 16, seed=5, snr_db=30.0, extra=0)
        audio = np.concatenate([audio, [np.nan]])
        assert np.array_equal(modem.demodulate(audio, 16), bits)


class TestSoftPowersChecks:
    def test_rejects_non_positive_n_bits(self):
        with pytest.raises(ConfigurationError):
            BinaryFskModem().soft_powers(np.zeros(4800), 0)

    def test_rejects_nan_audio(self):
        with pytest.raises(SignalError):
            BinaryFskModem().soft_powers(np.full(4800, np.nan), 2)
