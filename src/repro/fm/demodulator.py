"""FM demodulation: quadrature (polar) discriminator.

Section 3.2 of the paper describes FM decoding as differentiating the
baseband phase; real receivers implement it with PLLs or quadrature
discriminators. We use the discriminator form: the angle of
``x[n] * conj(x[n-1])`` is the per-sample phase increment, i.e. the
instantaneous frequency, which *is* the MPX baseband scaled by the
deviation.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.errors import SignalError
from repro.utils.env import fast_numerics
from repro.utils.validation import ensure_positive, ensure_signal


def fm_demodulate(
    iq: np.ndarray,
    sample_rate: float = MPX_RATE_HZ,
    deviation_hz: float = FM_MAX_DEVIATION_HZ,
) -> np.ndarray:
    """Recover the MPX baseband from a complex FM envelope.

    Args:
        iq: complex envelope samples; 1-D, or 2-D ``(batch, samples)`` to
            demodulate a stack of envelopes along the last axis in one
            vectorized pass. Each row's output is bit-identical to
            demodulating that row alone.
        sample_rate: sample rate of ``iq``.
        deviation_hz: deviation used at the modulator; output is scaled so
            full deviation maps back to +/-1.

    Returns:
        Real MPX estimate, same shape as the input (first sample
        duplicated, matching :func:`repro.dsp.phase.phase_to_frequency`).

    Raises:
        SignalError: if the input is not complex or any waveform is all
            zeros (no carrier to demodulate).
    """
    iq = ensure_signal(iq, "iq")
    if not np.iscomplexobj(iq):
        raise SignalError("iq must be a complex envelope")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    deviation_hz = ensure_positive(deviation_hz, "deviation_hz")
    if fast_numerics():
        # REPRO_NUMERICS=fast: one fused lag product over the whole
        # stack. This gives up the exact-mode contract twice over — the
        # 2-D buffered iterator perturbs the complex multiply by an ULP
        # for some lengths, and the below-floor limiter substitution is
        # skipped entirely (an exactly-zero sample contributes a zero
        # phase increment instead of holding the previous sample), which
        # also skips the magnitude/floor passes over the stack. The
        # no-carrier guard stays, on the cheaper complex compare.
        if not np.all(np.any(iq != 0, axis=-1)):
            raise SignalError("iq contains no signal (all zeros)")
        increments = np.angle(iq[..., 1:] * np.conj(iq[..., :-1]))
        if increments.shape[-1] == 0:
            return np.zeros(iq.shape[:-1] + (1,))
        # Single fused scaling written straight into the output (one
        # multiply plus a first-sample copy). The dtype follows
        # the input: a complex64 stack from the fast transmit path keeps
        # the MPX in float32 for the receive chain's filters.
        out = np.empty(iq.shape, dtype=increments.dtype)
        np.multiply(
            increments, sample_rate / (2.0 * np.pi * deviation_hz), out=out[..., 1:]
        )
        out[..., 0] = out[..., 1]
        return out
    magnitude = np.abs(iq)
    if not np.all(np.any(magnitude > 0, axis=-1)):
        raise SignalError("iq contains no signal (all zeros)")
    if iq.shape[-1] == 1:
        return np.zeros(iq.shape[:-1] + (1,))
    # Guard against zero samples from hard channel fades by substituting
    # the floor (limiter behavior). The floor is per waveform, so a batch
    # demodulates each row exactly as it would alone.
    floor = 1e-12 * np.max(magnitude, axis=-1, keepdims=True)
    # The MPX takes the input's real dtype: float32 rows for a complex64
    # envelope, whether it comes alone or in a stack.
    out = np.empty(iq.shape, dtype=magnitude.dtype)
    if iq.ndim == 1:
        _discriminate(iq, magnitude, floor, sample_rate, out)
    else:
        # One row at a time through the same kernel as the 1-D call. A
        # single 2-D pass over the lag-product views routes through
        # numpy's buffered iterator, whose chunk boundaries differ from
        # the 1-D case and perturb the complex multiply by an ULP for
        # some waveform lengths — per-row contiguous views take the same
        # code path as the serial demodulate for every length, keeping
        # the batched backend's bit-identity contract unconditional.
        # (Each row is still one vectorized C call; only the cross-row
        # fusion is given up — that is what REPRO_NUMERICS=fast buys
        # back.)
        for row in range(iq.shape[0]):
            _discriminate(iq[row], magnitude[row], floor[row], sample_rate, out[row])
    out /= deviation_hz
    return out


def _discriminate(
    iq: np.ndarray,
    magnitude: np.ndarray,
    floor: np.ndarray,
    sample_rate: float,
    out: np.ndarray,
) -> None:
    """Instantaneous frequency (Hz) of one waveform, written into ``out``.

    The quadrature discriminator: the angle of ``x[n] * conj(x[n-1])``,
    scaled by ``sample_rate / 2pi``, first sample duplicated.
    """
    safe = iq if magnitude.min() > floor[0] else np.where(magnitude > floor, iq, floor)
    # The lag product stays a fresh array: a complex multiply into a
    # preallocated buffer was seen to take a different numpy loop and
    # change the last bit.
    lag = safe[1:] * np.conj(safe[:-1])
    np.arctan2(lag.imag, lag.real, out=out[1:])
    out[1:] *= sample_rate
    out[1:] /= 2.0 * np.pi
    out[0] = out[1]
