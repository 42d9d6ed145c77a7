"""FIR filter design (windowed-sinc) and zero-phase filtering helpers.

The FM stack needs sharp audio-band filters: a 15 kHz low-pass before FM
modulation, band-passes to isolate the pilot / stereo / RDS subcarriers,
and narrow filters around FSK tones. Windowed-sinc FIRs with Hann windows
are simple, linear-phase, and entirely adequate at these sample rates.

Designs are memoized through the process-wide DSP plan cache
(:mod:`repro.dsp.plan_cache`): a sweep that runs the same receive chain
at every grid point designs each filter once instead of once per point.
Cached taps are returned non-writable; derive a fresh array before
mutating.

:func:`filter_signal` is an FFT convolution that caches the other half
of the work too: the spectrum of the zero-padded kernel, keyed in the
same plan cache by the taps' bytes and dtype, the FFT length and
whether the transform is real. Every grid point of a sweep filters rows
of one length with the same few designs, so each kernel is transformed
once per sweep rather than once per call. The transform length and
operation order are those of ``scipy.signal.fftconvolve``, so outputs
are byte-identical to it.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.dsp.plan_cache import cached_plan
from repro.dsp.windows import hann_window
from repro.errors import ConfigurationError
from repro.utils.validation import ensure_positive, ensure_signal


def design_lowpass_fir(cutoff_hz: float, sample_rate: float, num_taps: int = 257) -> np.ndarray:
    """Design a linear-phase low-pass FIR via the windowed-sinc method.

    Args:
        cutoff_hz: -6 dB cutoff frequency.
        sample_rate: sample rate of the signal the filter will run at.
        num_taps: filter length; must be odd so group delay is an integer.

    Returns:
        Filter taps normalized to unity DC gain (non-writable; designs
        are shared through the DSP plan cache).
    """
    cutoff_hz = ensure_positive(cutoff_hz, "cutoff_hz")
    sample_rate = ensure_positive(sample_rate, "sample_rate")
    if cutoff_hz >= sample_rate / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz must be below Nyquist {sample_rate / 2} Hz"
        )
    if num_taps < 3 or num_taps % 2 == 0:
        raise ConfigurationError(f"num_taps must be odd and >= 3, got {num_taps}")
    return cached_plan(
        ("lowpass_fir", cutoff_hz, sample_rate, num_taps),
        lambda: _design_lowpass(cutoff_hz, sample_rate, num_taps),
    )


def _design_lowpass(cutoff_hz: float, sample_rate: float, num_taps: int) -> np.ndarray:
    """The actual (validated-input) windowed-sinc synthesis."""
    n = np.arange(num_taps) - (num_taps - 1) / 2
    fc = cutoff_hz / sample_rate
    taps = 2.0 * fc * np.sinc(2.0 * fc * n)
    taps *= hann_window(num_taps)
    return taps / np.sum(taps)


def highpass_fir(cutoff_hz: float, sample_rate: float, num_taps: int = 257) -> np.ndarray:
    """Design a linear-phase high-pass FIR by spectral inversion."""
    lowpass = design_lowpass_fir(cutoff_hz, sample_rate, num_taps)
    highpass = -lowpass
    highpass[(num_taps - 1) // 2] += 1.0
    return highpass


def bandpass_fir(
    low_hz: float, high_hz: float, sample_rate: float, num_taps: int = 257
) -> np.ndarray:
    """Design a linear-phase band-pass FIR as the difference of two low-passes.

    Args:
        low_hz: lower band edge.
        high_hz: upper band edge (must exceed ``low_hz``).
        sample_rate: sample rate the filter targets.
        num_taps: odd filter length.
    """
    if high_hz <= low_hz:
        raise ConfigurationError(f"high_hz ({high_hz}) must exceed low_hz ({low_hz})")
    return cached_plan(
        ("bandpass_fir", low_hz, high_hz, sample_rate, num_taps),
        lambda: design_lowpass_fir(high_hz, sample_rate, num_taps)
        - design_lowpass_fir(low_hz, sample_rate, num_taps),
    )


def filter_signal(taps: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Apply an FIR filter with group-delay compensation.

    Uses FFT convolution (fast for the long filters used here) and trims
    the (num_taps - 1) / 2 sample group delay so the output is aligned with
    the input, which keeps symbol boundaries where the modulator put them.

    Args:
        taps: FIR taps with odd length.
        signal: real or complex input; 1-D, or 2-D ``(batch, samples)`` to
            filter a stack of waveforms along the last axis in one FFT
            pass. Each row's output is bit-identical to filtering that row
            alone, so the sweep engine's batched backend can share this
            exact code path with the serial one.

    Returns:
        Filtered signal, same shape and alignment as the input. Float32
        and complex64 inputs stay single precision.
    """
    raw = np.asarray(signal)
    signal = ensure_signal(raw, "signal")
    if raw.dtype == np.float32:
        # ensure_signal promotes every real input to float64.
        signal = raw
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size % 2 == 0:
        raise ConfigurationError("taps must be a 1-D odd-length array")
    if signal.dtype in (np.float32, np.complex64):
        # Single-precision signals stay single precision (and the FFT
        # convolution runs the cheaper float32 transforms) instead of
        # being silently promoted through float64 taps. Double-precision
        # inputs — everything the exact numerics mode produces — are
        # untouched.
        taps = taps.astype(np.float32)
    if taps.size == 1:
        # A length-1 kernel is a plain scale (fftconvolve skips the FFT).
        return signal * taps
    n = signal.shape[-1]
    delay = (taps.size - 1) // 2
    real = not np.iscomplexobj(signal)
    # fftconvolve's length for the delay-padded signal: any other length
    # rounds differently.
    nfft = sp_fft.next_fast_len(n + delay + taps.size - 1, real)
    fft, ifft = (sp_fft.rfftn, sp_fft.irfftn) if real else (sp_fft.fftn, sp_fft.ifftn)
    # The transform zero-pads to nfft itself, so the delay padding never
    # needs to exist as an array.
    spectrum = fft(signal, [nfft], axes=[-1])
    spectrum *= _kernel_spectrum(taps, nfft, real)
    filtered = ifft(spectrum, [nfft], axes=[-1], overwrite_x=True)
    return filtered[..., delay : delay + n]


def _kernel_spectrum(taps: np.ndarray, nfft: int, real: bool) -> np.ndarray:
    """The kernel's ``nfft``-point spectrum, through the DSP plan cache."""
    fft = sp_fft.rfftn if real else sp_fft.fftn
    return cached_plan(
        ("fir_spectrum", taps.tobytes(), taps.dtype.str, nfft, real),
        lambda: fft(taps, [nfft], axes=[-1]),
    )
