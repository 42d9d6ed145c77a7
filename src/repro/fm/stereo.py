"""Stereo MPX decoding: pilot-locked L/R separation.

Receivers do not expose the L-R stream directly (paper section 3.3.1);
they output left and right channels. This module reproduces that: it
recovers the pilot with a PLL, regenerates the 38 kHz subcarrier,
synchronously demodulates L-R, and matrixes L = (L+R) + (L-R),
R = (L+R) - (L-R). When no pilot is detected the receiver stays in mono
mode and L == R, exactly the fallback behaviour the paper leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ, PILOT_FREQ_HZ
from repro.dsp.filters import bandpass_fir, design_lowpass_fir, filter_signal
from repro.dsp.pll import PhaseLockedLoop
from repro.dsp.resample import resample_by_ratio
from repro.errors import SignalError
from repro.fm.pilot import PILOT_DETECT_THRESHOLD_DB, pilot_power_ratio_db
from repro.utils.validation import ensure_positive, ensure_real, ensure_real_signal


@dataclass
class StereoAudio:
    """Result of stereo decoding.

    Attributes:
        left: left channel at ``audio_rate``.
        right: right channel at ``audio_rate``.
        stereo_locked: True when the pilot was detected and the stereo
            matrix was applied; False means mono fallback (left == right).
        audio_rate: sample rate of the channels.
    """

    left: np.ndarray
    right: np.ndarray
    stereo_locked: bool
    audio_rate: float

    @property
    def mono(self) -> np.ndarray:
        """The (L+R)/2 mono mix."""
        return 0.5 * (self.left + self.right)

    @property
    def difference(self) -> np.ndarray:
        """The (L-R)/2 stereo difference — the paper's stereo-backscatter
        recovery step (subtract the receiver's L and R outputs)."""
        return 0.5 * (self.left - self.right)


def decode_mono(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
) -> np.ndarray:
    """Extract only the mono (L+R) audio from an MPX baseband.

    This is the 0-15 kHz slice every receiver produces before any stereo
    processing; mono-only receive paths (``stereo_capable=False``) use it
    directly and skip pilot recovery entirely.

    Accepts a 1-D MPX or a 2-D ``(batch, samples)`` stack — the batched
    sweep backend decodes every grid point's MPX in one filtering +
    resampling pass, each row bit-identical to decoding it alone.
    """
    mpx = ensure_real_signal(mpx, "mpx")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    audio_rate = ensure_positive(audio_rate, "audio_rate")
    mono_mpx = filter_signal(design_lowpass_fir(15e3, mpx_rate, 513), mpx)
    return resample_by_ratio(mono_mpx, mpx_rate, audio_rate)


def decode_stereo(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    force_stereo: bool = False,
) -> StereoAudio:
    """Decode an MPX baseband into left/right audio.

    One waveform decoded as a batch of one by :func:`decode_stereo_batch`.

    Args:
        mpx: demodulated composite baseband, 1-D.
        mpx_rate: sample rate of ``mpx``.
        audio_rate: desired output audio rate.
        force_stereo: decode the stereo matrix even without a confident
            pilot detection (used by tests; real receivers gate on the
            pilot, which is the default).

    Returns:
        :class:`StereoAudio` with mono fallback when no pilot is present.
    """
    mpx = ensure_real(mpx, "mpx")
    return decode_stereo_batch(mpx[np.newaxis], mpx_rate, audio_rate, force_stereo)[0]


def row_chunks(n_rows: int, max_rows: Optional[int]) -> List[slice]:
    """Contiguous row slices of at most ``max_rows`` (one slice if None).

    The shared chunking helper for every ``max_fft_rows``-capped batch
    decode stage (here and in :mod:`repro.receiver.fm_receiver`).
    """
    if max_rows is None or max_rows >= n_rows:
        return [slice(0, n_rows)]
    step = max(int(max_rows), 1)
    return [
        slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)
    ]


def decode_stereo_batch(
    mpx: np.ndarray,
    mpx_rate: float = MPX_RATE_HZ,
    audio_rate: float = AUDIO_RATE_HZ,
    force_stereo: bool = False,
    max_fft_rows: Optional[int] = None,
) -> List[StereoAudio]:
    """Decode a stack of MPX basebands into left/right audio in one pass.

    The one stereo decoder; :func:`decode_stereo` calls it with a batch of
    one. Pilot detection runs as one vectorized power-ratio computation,
    the pilot PLL advances all pilot-bearing waveforms together through
    :meth:`~repro.dsp.pll.PhaseLockedLoop.track_batch`, and the 38 kHz
    regeneration, L-R demodulation and audio filtering are 2-D NumPy ops.
    Every stage is row-independent, so row ``i``'s result does not depend
    on the other rows — including per-row mono fallback when a row's
    pilot is absent or its loop fails to lock.

    The pilot is recovered on a 5x-decimated pilot band (the 19 kHz tone
    is still well below the decimated Nyquist) and its unwrapped phase is
    linearly interpolated back to the MPX rate: the phase of a narrowband
    tone is nearly linear over 5 samples, and this cuts the loop's
    iteration count fivefold.

    Args:
        mpx: demodulated composite basebands, shape ``(batch, samples)``.
        mpx_rate: sample rate of each row.
        audio_rate: desired output audio rate.
        force_stereo: decode the stereo matrix on every row regardless of
            pilot detection and lock; the pilot gate is skipped.
        max_fft_rows: cap on how many rows each FFT-heavy stage (mono
            low-pass, pilot/stereo band-passes, Welch pilot gate, the
            L-R filtering) spans per pass, keeping its working set
            cache-sized. The pilot PLL is *not* capped: its per-step
            state vector always spans every pilot-bearing row, so its
            vectorization width no longer depends on memory chunking.
            Purely a performance knob — results are bit-identical at any
            value (each stage is row-independent).

    Returns:
        One :class:`StereoAudio` per row, in order.
    """
    mpx = np.asarray(mpx)
    if mpx.ndim != 2:
        raise SignalError(f"mpx must be 2-D (batch, samples), got shape {mpx.shape}")
    if np.iscomplexobj(mpx):
        raise SignalError("mpx must be real-valued")
    mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
    audio_rate = ensure_positive(audio_rate, "audio_rate")
    n_rows = mpx.shape[0]
    if n_rows == 0:
        return []
    mpx = mpx.astype(float, copy=False)

    # Mono (L+R) decode for every row; chunked — the 15 kHz low-pass and
    # the polyphase resample are the FFT-heavy part of the mono path.
    mono: Optional[np.ndarray] = None
    for rows in row_chunks(n_rows, max_fft_rows):
        chunk = decode_mono(mpx[rows], mpx_rate, audio_rate)
        if mono is None:
            mono = np.empty((n_rows, chunk.shape[-1]))
        mono[rows] = chunk
    results: List[Optional[StereoAudio]] = [None] * n_rows

    # Stage 1: vectorized pilot gate (the per-row detect_pilot decision),
    # Welch working set capped like the filters.
    if force_stereo:
        candidates = np.arange(n_rows)
    else:
        ratios = np.empty(n_rows)
        for rows in row_chunks(n_rows, max_fft_rows):
            ratios[rows] = pilot_power_ratio_db(mpx[rows], mpx_rate)
        candidates = np.flatnonzero(ratios > PILOT_DETECT_THRESHOLD_DB)

    if candidates.size:
        # Stage 2: multi-waveform pilot recovery. The band-pass runs in
        # memory-capped chunks; only the (5x smaller) decimated pilot
        # band persists, so the PLL advances ALL candidate rows per time
        # step regardless of the FFT chunk size.
        decimation = 5
        pilot_taps = bandpass_fir(18.5e3, 19.5e3, mpx_rate, 1025)
        n_decimated = len(range(0, mpx.shape[-1], decimation))
        pilot_decimated = np.empty((candidates.size, n_decimated))
        for rows in row_chunks(candidates.size, max_fft_rows):
            pilot_decimated[rows] = filter_signal(pilot_taps, mpx[candidates[rows]])[
                :, ::decimation
            ]
        decimated_rate = mpx_rate / decimation
        pll = PhaseLockedLoop(PILOT_FREQ_HZ, decimated_rate, loop_bandwidth_hz=30.0)
        track = pll.track_batch(pilot_decimated)

        engaged = np.flatnonzero(track.locked | force_stereo)
        if engaged.size:
            rows = candidates[engaged]
            # Stage 3: subcarrier regeneration + L-R matrix for the
            # locked rows, stacked and chunked like the other filters.
            sample_positions = np.arange(mpx.shape[-1]) / decimation
            decimated_index = np.arange(track.phase.shape[-1])
            stereo_taps = bandpass_fir(23e3, 53e3, mpx_rate, 513)
            diff_taps = design_lowpass_fir(15e3, mpx_rate, 513)
            diff: Optional[np.ndarray] = None
            for chunk in row_chunks(engaged.size, max_fft_rows):
                phase_full = np.stack(
                    [
                        np.interp(sample_positions, decimated_index, track.phase[pos])
                        for pos in engaged[chunk]
                    ]
                )
                carrier38 = np.cos(2.0 * phase_full)
                stereo_band = filter_signal(stereo_taps, mpx[rows[chunk]])
                # Synchronous AM detection; 2 undoes the product's 1/2.
                diff_mpx = 2.0 * stereo_band * carrier38
                diff_mpx = filter_signal(diff_taps, diff_mpx)
                diff_chunk = resample_by_ratio(diff_mpx, mpx_rate, audio_rate)
                if diff is None:
                    diff = np.empty((engaged.size, diff_chunk.shape[-1]))
                diff[chunk] = diff_chunk

            n = min(mono.shape[-1], diff.shape[-1])
            for k, row in enumerate(rows):
                results[row] = StereoAudio(
                    left=mono[row, :n] + diff[k, :n],
                    right=mono[row, :n] - diff[k, :n],
                    stereo_locked=True,
                    audio_rate=audio_rate,
                )

    for row in range(n_rows):
        if results[row] is None:
            fallback = np.ascontiguousarray(mono[row])
            results[row] = StereoAudio(
                left=fallback,
                right=fallback.copy(),
                stereo_locked=False,
                audio_rate=audio_rate,
            )
    return results
