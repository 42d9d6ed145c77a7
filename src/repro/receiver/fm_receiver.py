"""The generic FM receiver chain: IQ -> MPX -> mono/stereo audio."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import AUDIO_RATE_HZ, FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.dsp.biquad import deemphasis_filter
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.errors import ConfigurationError, SignalError
from repro.fm.demodulator import fm_demodulate
from repro.fm.stereo import decode_mono, decode_stereo_batch, row_chunks
from repro.utils.validation import ensure_1d, ensure_positive


@dataclass
class ReceivedAudio:
    """Output of a receiver.

    Attributes:
        left: left channel audio.
        right: right channel audio (== left when mono).
        stereo_locked: whether the stereo decoder engaged.
        mpx: the demodulated composite baseband (for RDS or diagnostics).
        audio_rate: sample rate of the audio channels.
    """

    left: np.ndarray
    right: np.ndarray
    stereo_locked: bool
    mpx: np.ndarray
    audio_rate: float

    @property
    def mono(self) -> np.ndarray:
        """(L+R)/2 mix — what a mono radio outputs."""
        return 0.5 * (self.left + self.right)

    @property
    def difference(self) -> np.ndarray:
        """(L-R)/2 — the paper's stereo-backscatter recovery output."""
        return 0.5 * (self.left - self.right)


class FMReceiver:
    """Discriminator-based FM broadcast receiver.

    Args:
        mpx_rate: IQ / MPX sample rate.
        audio_rate: output audio rate.
        deviation_hz: deviation assumed for MPX scaling.
        audio_cutoff_hz: end-to-end audio low-pass; Fig. 6 measures the
            smartphone chain rolling off sharply above ~13 kHz.
        apply_deemphasis: enable the 75 us de-emphasis network (pair with
            a pre-emphasizing transmitter; the library's default chain is
            flat, matching the paper's tone measurements).
        stereo_capable: stereo decoding gated on the 19 kHz pilot.
    """

    def __init__(
        self,
        mpx_rate: float = MPX_RATE_HZ,
        audio_rate: float = AUDIO_RATE_HZ,
        deviation_hz: float = FM_MAX_DEVIATION_HZ,
        audio_cutoff_hz: float = 15_000.0,
        apply_deemphasis: bool = False,
        stereo_capable: bool = True,
    ) -> None:
        self.mpx_rate = ensure_positive(mpx_rate, "mpx_rate")
        self.audio_rate = ensure_positive(audio_rate, "audio_rate")
        self.deviation_hz = ensure_positive(deviation_hz, "deviation_hz")
        self.audio_cutoff_hz = ensure_positive(audio_cutoff_hz, "audio_cutoff_hz")
        self.apply_deemphasis = apply_deemphasis
        self.stereo_capable = stereo_capable

    def _post_process(self, audio: np.ndarray) -> np.ndarray:
        # The chain cutoff (Fig. 6) is a cliff, not a gentle roll-off:
        # 1025 taps at 48 kHz give a ~150 Hz transition band.
        cutoff = min(self.audio_cutoff_hz, self.audio_rate / 2 * 0.98)
        audio = filter_signal(design_lowpass_fir(cutoff, self.audio_rate, 1025), audio)
        if self.apply_deemphasis:
            audio = deemphasis_filter(self.audio_rate).apply(audio)
        return audio

    @classmethod
    def apply_output_effects_batch(
        cls, receivers: Sequence["FMReceiver"], received: Sequence[ReceivedAudio]
    ) -> List[ReceivedAudio]:
        """Receiver-specific effects on a decoded batch; none by default.

        Subclasses model their recording chain here (smartphone AGC and
        codec noise, car cabin acoustics). The hook runs after the shared
        demodulate/decode/post-process DSP, once per batch, whether the
        batch is one :meth:`receive` or a sweep partition. Random draws
        stay per row, left before right, from each receiver's own
        generator, so a row's effects do not depend on its batch. Under
        ``REPRO_NUMERICS=fast`` the overrides collapse the per-row draws
        into one batched ``standard_normal`` per partition: statistically
        identical, not bit-identical, and gated by the tolerance-tier
        goldens.
        """
        return list(received)

    def receive(self, iq: np.ndarray) -> ReceivedAudio:
        """Full receive chain: demodulate, decode, post-process, effects.

        One envelope received as a batch of one by :func:`receive_batch`.

        Raises:
            SignalError: if ``iq`` is not a non-empty 1-D complex envelope.
        """
        iq = ensure_1d(iq, "iq")
        if not np.iscomplexobj(iq):
            raise SignalError("iq must be a complex envelope")
        return receive_batch([self], iq[np.newaxis])[0]


def _require_uniform_batch(
    receivers: Sequence[FMReceiver], batch: np.ndarray, batch_name: str
) -> None:
    """Shared shape / configuration validation for the batch receive paths."""
    if batch.ndim != 2 or batch.shape[0] != len(receivers):
        raise ConfigurationError(
            f"{batch_name} must have shape (n_receivers, samples); got "
            f"{batch.shape} for {len(receivers)} receivers"
        )
    if not receivers:
        return
    ref = receivers[0]
    for rx in receivers:
        if type(rx) is not type(ref):
            raise ConfigurationError(
                "all receivers in one batch must be of one type; got "
                f"{type(ref).__name__} and {type(rx).__name__}"
            )
        if (
            rx.stereo_capable != ref.stereo_capable
            or rx.mpx_rate != ref.mpx_rate
            or rx.audio_rate != ref.audio_rate
            or rx.deviation_hz != ref.deviation_hz
            or rx.audio_cutoff_hz != ref.audio_cutoff_hz
            or rx.apply_deemphasis != ref.apply_deemphasis
        ):
            raise ConfigurationError(
                "all receivers in one batch must share stereo capability, "
                "mpx/audio rates, deviation, audio cutoff and de-emphasis"
            )


def decode_rows(
    receivers: Sequence[FMReceiver],
    mpx_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Decode a demodulated MPX stack into audio, *without* output effects.

    Stereo-capable receivers run the pilot-gated stereo decode
    (:func:`~repro.fm.stereo.decode_stereo_batch`): a row whose pilot is
    missing falls back to mono inside the batch. Mono receivers take the
    mono decode only: pilot recovery and the stereo matrix are pure,
    deterministic DSP whose output a mono receiver discards, so L and R
    are the identically post-processed mono mix. The audio low-pass and,
    when configured, the de-emphasis IIR run over the stack. Every stage
    is row-independent, so a row decodes the same in any batch.
    Receiver-specific (stochastic) output effects are *not* applied;
    callers batch them through :meth:`FMReceiver.apply_output_effects_batch`,
    which lets the sweep backend decode in memory-capped chunks and still
    vectorize the effects across the whole partition.

    Args:
        receivers: one configured receiver per row; all must share type
            and the DSP-relevant configuration.
        mpx_batch: demodulated MPX rows, ``(len(receivers), samples)``.
        max_fft_rows: cap on how many rows each FFT-heavy filtering pass
            spans (``None`` = all rows at once). The stereo pilot PLL
            always advances the full stack of pilot-bearing rows per time
            step (see :meth:`repro.dsp.pll.PhaseLockedLoop.track_batch`).
            Purely a working-set knob: results do not change with it.
    """
    receivers = list(receivers)
    mpx_batch = np.asarray(mpx_batch)
    _require_uniform_batch(receivers, mpx_batch, "mpx_batch")
    if not receivers:
        return []
    ref = receivers[0]
    if ref.stereo_capable:
        decoded = decode_stereo_batch(
            mpx_batch, ref.mpx_rate, ref.audio_rate, max_fft_rows=max_fft_rows
        )
        # Audio-rate rows (a tenth of the MPX working set): the post
        # filters span the full stack, one channel at a time.
        left = ref._post_process(np.stack([audio.left for audio in decoded]))
        right = ref._post_process(np.stack([audio.right for audio in decoded]))
        locked = [audio.stereo_locked for audio in decoded]
    else:
        left = np.concatenate(
            [
                ref._post_process(decode_mono(mpx_batch[rows], ref.mpx_rate, ref.audio_rate))
                for rows in row_chunks(len(receivers), max_fft_rows)
            ]
        )
        right = left.copy()
        locked = [False] * len(receivers)
    return [
        ReceivedAudio(
            left=left[i],
            right=right[i],
            stereo_locked=locked[i],
            mpx=mpx_batch[i],
            audio_rate=ref.audio_rate,
        )
        for i in range(len(receivers))
    ]


def receive_batch(
    receivers: Sequence[FMReceiver],
    iq_batch: np.ndarray,
    max_fft_rows: Optional[int] = None,
) -> List[ReceivedAudio]:
    """Receive many envelopes through the shared DSP in one pass.

    The one receive implementation; :meth:`FMReceiver.receive` calls it
    with a batch of one. Demodulation and the decode run as stacked
    NumPy ops (:func:`decode_rows`), then receiver-specific stochastic
    effects (codec noise, cabin noise) batch through
    :meth:`FMReceiver.apply_output_effects_batch`: random draws per row
    with each receiver's own generator, deterministic shaping
    vectorized. Row ``i`` equals ``receivers[i].receive(iq_batch[i])``.

    Args:
        receivers: one configured receiver per row; all must share type,
            stereo capability and the DSP-relevant configuration (rates,
            cutoff, deviation, de-emphasis).
        iq_batch: complex envelopes, shape ``(len(receivers), samples)``.
        max_fft_rows: optional cap on the rows per FFT filtering pass.

    Returns:
        One :class:`ReceivedAudio` per row, in order.
    """
    receivers = list(receivers)
    iq_batch = np.asarray(iq_batch)
    _require_uniform_batch(receivers, iq_batch, "iq_batch")
    if not receivers:
        return []
    ref = receivers[0]
    mpx_batch = fm_demodulate(iq_batch, ref.mpx_rate, ref.deviation_hz)
    rows = decode_rows(receivers, mpx_batch, max_fft_rows)
    return type(ref).apply_output_effects_batch(receivers, rows)
