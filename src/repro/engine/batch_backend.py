"""The point executor: the one function that turns grid points into values.

Every backend runs grid points through :func:`run_batched_backend`; they
differ only in the row width they ask for and in who calls it:
``serial`` is width 1, ``batched`` the memory-capped width of
:func:`chunk_limit`, ``auto`` the width of the planner's rule per
partition, and the thread pool, the process-pool workers and the
launcher's shard workers run their points at width 1.

The paper's link-budget grids share one front end: a P×D sweep reuses the
same cached composite envelope at every point, and only the link (SNR,
fading, noise) and the receiver's stochastic effects differ per point.
:func:`partition_points` groups points by front-end key (program/mode/
amplitude + payload + ambient variant) and receive stage; each partition
transmits its envelope through a ``(rows, samples)`` stack
(:func:`repro.channel.link.transmit_batch`), then demodulates
(:func:`repro.fm.demodulator.fm_demodulate`), decodes
(:func:`repro.receiver.fm_receiver.decode_rows`) and applies the
receiver output effects as NumPy ops over the stack, ``rows`` points per
pass.

- **Mono partitions** run transmit → demodulate → decode → output
  effects → measure one pass at a time, so width 1 holds one point's
  signal at a time.
- **Stereo partitions** (phone stereo *and* the car radio) keep one MPX
  buffer for the whole partition and decode it through the
  multi-waveform pilot PLL
  (:meth:`repro.dsp.pll.PhaseLockedLoop.track_batch`), so the PLL spans
  the partition whatever the width.
- **Fading** envelopes of declarative
  :class:`~repro.channel.fading.MotionFadingSpec` links are drawn per
  pass from each point's own stream. A *live* model shared across points
  consumes one stream in grid order, so its envelopes are drawn up
  front, in grid order, through
  :func:`repro.channel.fading.stack_envelopes`.
- **Ambient caching off**: each point builds its own front end from its
  ``station`` child and is a partition of one.
- **Measure-driven** scenarios (no declared ``payload``: Fig. 12's
  two-phone cancellation, the deployment layer, the survey figures) have
  no runner-performed transmission; their measure is called per point.

Results do not depend on the width: every stochastic draw comes from the
point's own pre-derived generators, in the order the chain consumes them
(station, link incl. fading, then receiver), and every receive stage
works along the last axis with row-independent operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.channel.fading import stack_envelopes
from repro.channel.link import resolve_fading, transmit_batch
from repro.constants import MPX_RATE_HZ
from repro.engine.cache import AmbientCache, CachedAmbient
from repro.engine.scenario import GridPoint, PointRun, Scenario, is_live_fading
from repro.errors import ConfigurationError
from repro.fm.demodulator import fm_demodulate
from repro.receiver.fm_receiver import decode_rows
from repro.utils.env import env_float
from repro.utils.rand import child_generator

BATCH_MEMORY_ENV_VAR = "REPRO_BATCH_MAX_MB"
"""Cap (in MB) on one stacked FFT working set; grids larger than the cap
vectorize in row slices, which changes nothing numerically. Malformed
or non-positive values raise :class:`~repro.errors.ConfigurationError`."""

_DEFAULT_BATCH_MB = 64.0
"""Default chunk budget. Deliberately cache-sized rather than RAM-sized:
the vectorized ops are elementwise and memory-bound, so a working set
near the LLC beats one giant pass through DRAM (measured ~2.5x on the
Fig. 8 grid)."""

_TRANSMIT_BYTES_PER_SAMPLE = 48
"""Per-point bytes one transmit + demodulate chunk holds: the complex rx
row (16 B/sample), its two noise-draw scratch rows (16) and the
demodulated MPX row (8), plus slack for audio tails."""

Rows = Union[None, int, Mapping[int, int]]
"""Row width of :func:`run_batched_backend`: ``None`` for the memory-capped
:func:`chunk_limit` width, an int for one width everywhere, or a mapping
from :attr:`GridPoint.index` to width (a partition takes its first
member's entry) — how ``auto`` hands each partition the width the
planner's rule gave it."""


def batch_memory_budget_mb() -> float:
    """The configured chunk budget in MB, strictly parsed."""
    return env_float(
        BATCH_MEMORY_ENV_VAR, _DEFAULT_BATCH_MB, minimum=0.0, minimum_exclusive=True
    )


def chunk_limit(n_samples: int, budget_mb: Optional[float] = None) -> int:
    """How many grid points fit one vectorized chunk under the memory cap.

    The cap bounds the *working set* of each FFT/transmit pass — the
    decode stages receive it as their ``max_fft_rows`` — not the small
    per-row state that persists across passes (decimated pilot bands,
    audio-rate rows), which is what lets the stereo PLL span a whole
    partition regardless of this limit. The planner's width rule reads
    it for each partition's row length, and ``auto`` passes each
    decision's width to the executor, so a recorded
    :class:`~repro.engine.planner.PlanDecision` names the exact width
    its partition ran at.
    """
    if budget_mb is None:
        budget_mb = batch_memory_budget_mb()
    bytes_per_point = n_samples * _TRANSMIT_BYTES_PER_SAMPLE
    return max(1, int(budget_mb * 1e6 / max(bytes_per_point, 1)))


def make_ambient(
    scenario: Scenario,
    point: GridPoint,
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> Optional[CachedAmbient]:
    """The point's cache-backed ambient source (``None`` when caching is off)."""
    if cache is None or not scenario.cache_ambient:
        return None
    ambient = CachedAmbient(cache, ambient_master)
    if scenario.ambient_variant is not None:
        ambient = ambient.with_variant(scenario.variant_for(point))
    return ambient


def composite_entry(
    scenario: Scenario,
    point: GridPoint,
    payload: np.ndarray,
    cache: Optional[AmbientCache],
    ambient_master: int,
):
    """The point's (ambient view, front end, composite cache key) triple.

    One place derives the deterministic key a point's front-end composite
    lives under, so the process backend's store warm-up requests exactly
    the entry its workers will. Builds only cheap value objects — no
    synthesis happens here.
    """
    from repro.experiments.common import ExperimentChain

    front_end = ExperimentChain(**scenario.chain_kwargs(point)).front_end()
    ambient = make_ambient(scenario, point, cache, ambient_master)
    key = ambient.composite_key(front_end, payload)
    return ambient, front_end, key


@dataclass
class Partition:
    """Grid points that run through one stacked pass.

    Attributes:
        positions: positions into the executed point list, grid order.
        chains: each member's :class:`~repro.experiments.common.ExperimentChain`
            (``None`` entries for a measure-driven scenario without one).
        payload: the shared transmitted waveform (``None`` when
            measure-driven).
        stage: the shared :class:`~repro.experiments.common.ReceiveStage`.
    """

    positions: List[int]
    chains: List[object]
    payload: Optional[np.ndarray] = None
    stage: Optional[object] = None

    @property
    def stereo(self) -> bool:
        """Whether the partition decodes through the stereo (PLL) path."""
        return self.stage is not None and (
            self.stage.receiver_kind == "car" or self.stage.stereo_decode
        )


def partition_points(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
) -> List[Partition]:
    """Group points into the partitions :func:`run_batched_backend` runs.

    Runner-transmitted points group by shared front end (front-end key,
    ambient variant, payload) and receive stage; with ambient caching off
    every point synthesizes its own front end and is a partition of one.
    A measure-driven scenario is one partition whose points are measured
    one by one. The planner's width rule decides per partition of this
    list. Cheap: builds chain value objects, never a waveform or a
    random stream.
    """
    from repro.experiments.common import ExperimentChain

    if scenario.measure_driven:
        if not points:
            return []
        if scenario.payload is not None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} declares a payload but no chain "
                "(set base_chain / chain_axes / chain_value_params)"
            )
        chains = [
            ExperimentChain(**scenario.chain_kwargs(point)) if scenario.uses_chain else None
            for point in points
        ]
        return [Partition(positions=list(range(len(points))), chains=chains)]

    cached = cache is not None and scenario.cache_ambient
    partitions: Dict[tuple, Partition] = {}
    for pos, point in enumerate(points):
        chain = ExperimentChain(**scenario.chain_kwargs(point))
        payload = scenario.payload_for(point, data)
        stage = chain.receive_stage()
        if cached:
            key = (
                chain.front_end_key(),
                scenario.variant_for(point),
                payload.shape[-1],
                id(payload),
                stage,
            )
        else:
            key = (point.index,)
        part = partitions.get(key)
        if part is None:
            part = partitions[key] = Partition([], [], payload, stage)
        part.positions.append(pos)
        part.chains.append(chain)
    return list(partitions.values())


def run_batched_backend(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    cache: Optional[AmbientCache],
    ambient_master: int,
    rows: Rows = None,
) -> List[object]:
    """Execute grid points to their measured values, ``rows`` points per pass.

    Args:
        scenario: the sweep being executed.
        data: the shared dict from ``scenario.prepare``.
        points: the grid points to run, in grid order.
        seeds: each point's pre-derived stream seed.
        cache: ambient cache for this process (``None`` disables caching).
        ambient_master: sweep-level ambient seed.
        rows: the row width (see :data:`Rows`); it changes nothing
            numerically.

    Returns:
        Values in the order of ``points``.
    """
    values: List[object] = [None] * len(points)
    partitions = partition_points(scenario, data, points, cache)
    if scenario.measure_driven:
        for part in partitions:
            for pos, chain in zip(part.positions, part.chains):
                ambient = make_ambient(scenario, points[pos], cache, ambient_master)
                if chain is not None:
                    chain.ambient_source = ambient
                run = PointRun(
                    point=points[pos],
                    rng=np.random.default_rng(seeds[pos]),
                    data=data,
                    ambient=ambient,
                    chain=chain,
                )
                values[pos] = scenario.measure(run, **scenario.measure_params)
        return values

    ambients = [
        make_ambient(scenario, points[part.positions[0]], cache, ambient_master)
        for part in partitions
    ]
    iqs: Dict[int, np.ndarray] = {}
    envelopes = _live_envelopes(partitions, seeds, ambients, iqs)
    for k, part in enumerate(partitions):
        iq = iqs.pop(k, None)
        if iq is None:
            iq = _front_end_envelope(part, seeds, ambients[k])
        if rows is None:
            width = chunk_limit(iq.size)
        elif isinstance(rows, Mapping):
            width = rows[points[part.positions[0]].index]
        else:
            width = rows
        _run_partition(
            scenario, data, points, seeds, part, iq, ambients[k],
            max(1, int(width)), envelopes, values,
        )
    return values


def _front_end_envelope(
    part: Partition, seeds: Sequence[int], ambient: Optional[CachedAmbient]
) -> np.ndarray:
    """The partition's composite envelope: the shared cached composite, or
    (caching off) its one point's own synthesis from its station child."""
    front_end = part.chains[0].front_end()
    if ambient is not None:
        return ambient.modulated_composite(front_end, part.payload)
    from repro.experiments.common import ChainState

    station = child_generator(np.random.default_rng(seeds[part.positions[0]]), "station")
    return front_end.apply(ChainState(payload_audio=part.payload), station).iq


def _live_envelopes(
    partitions: List[Partition],
    seeds: Sequence[int],
    ambients: List[Optional[CachedAmbient]],
    iqs: Dict[int, np.ndarray],
) -> Dict[int, np.ndarray]:
    """Envelopes of live fading models, drawn up front in grid order.

    A live model shared across points consumes its stream exactly as a
    point-by-point loop would only if its draws happen in grid order,
    whatever the partitioning. Consecutive rows of one length stack into
    one synthesis. The front ends fetched for their lengths are left in
    ``iqs`` for the main pass.
    """
    live: Dict[int, tuple] = {}
    for k, part in enumerate(partitions):
        for pos, chain in zip(part.positions, part.chains):
            if is_live_fading(chain.fading):
                if k not in iqs:
                    iqs[k] = _front_end_envelope(part, seeds, ambients[k])
                live[pos] = (chain.fading, iqs[k].size)
    envelopes: Dict[int, np.ndarray] = {}
    for size, run in itertools.groupby(sorted(live), key=lambda pos: live[pos][1]):
        run = list(run)
        stack = stack_envelopes([live[pos][0] for pos in run], size, MPX_RATE_HZ)
        envelopes.update(zip(run, stack))
    return envelopes


def _run_partition(
    scenario: Scenario,
    data: Dict[str, object],
    points: Sequence[GridPoint],
    seeds: Sequence[int],
    part: Partition,
    iq: np.ndarray,
    ambient: Optional[CachedAmbient],
    width: int,
    envelopes: Dict[int, np.ndarray],
    values: List[object],
) -> None:
    """Run one partition ``width`` points per pass."""

    def measure(members, gens, receivers, mpx) -> None:
        raw_rows = decode_rows(receivers, mpx, max_fft_rows=width)
        received_rows = type(receivers[0]).apply_output_effects_batch(receivers, raw_rows)
        for (pos, chain), gen, received in zip(members, gens, received_rows):
            chain.ambient_source = ambient
            run = PointRun(
                point=points[pos],
                rng=gen,
                data=data,
                ambient=ambient,
                chain=chain,
                received=received,
            )
            values[pos] = scenario.measure(run, **scenario.measure_params)

    members = list(zip(part.positions, part.chains))
    all_gens: List[np.random.Generator] = []
    all_receivers: List[object] = []
    mpx: Optional[np.ndarray] = None  # stereo: the partition-wide buffer
    for start in range(0, len(members), width):
        chunk = members[start : start + width]
        # Per-point streams, in the order the chain consumes them: the
        # station child (spent on the cached path), the link child
        # (whose "fade" child resolves a declarative fading spec), then
        # the receiver's child from the main generator.
        gens, link_rngs, receivers, rows_env, spec_rows = [], [], [], [], []
        for row, (pos, chain) in enumerate(chunk):
            gen = np.random.default_rng(seeds[pos])
            child_generator(gen, "station")
            link_rngs.append(child_generator(gen, "link"))
            fading = resolve_fading(chain.fading, link_rngs[-1])
            envelope = envelopes.pop(pos, None)  # a live model's, drawn up front
            if envelope is None and fading is not None:
                spec_rows.append(row)
                envelope = fading  # a resolved spec: drawn below, for this pass
            rows_env.append(envelope)
            receivers.append(chain.receive_stage().build_receiver(gen))
            gens.append(gen)
        if spec_rows:
            stack = stack_envelopes(
                [rows_env[row] for row in spec_rows], iq.size, MPX_RATE_HZ
            )
            for row, envelope in zip(spec_rows, stack):
                rows_env[row] = envelope
        chunk_mpx = fm_demodulate(
            transmit_batch(
                iq,
                [chain.link_budget() for _, chain in chunk],
                link_rngs,
                envelopes=rows_env,
            ),
            receivers[0].mpx_rate,
            receivers[0].deviation_hz,
        )
        if not part.stereo:
            measure(chunk, gens, receivers, chunk_mpx)
            continue
        if mpx is None:
            mpx = np.empty((len(members), iq.size), dtype=chunk_mpx.dtype)
        mpx[start : start + len(chunk)] = chunk_mpx
        all_gens.extend(gens)
        all_receivers.extend(receivers)
    if mpx is not None:
        measure(members, all_gens, all_receivers, mpx)
