"""Cost-model planner: a row width (or a pool) per executor partition.

Every backend runs grid points through one executor,
:func:`~repro.engine.batch_backend.run_batched_backend`, at some row
width. Which width is fastest is *grid-dependent*: the stacked pass wins
~1.3-1.5x on fading and stereo grids (short rows, wide stacks — per-point
Python dispatch amortizes across the stack) but loses ~2x on the
warm-cache Fig. 8 grid (long rows narrow the ``REPRO_BATCH_MAX_MB``
chunker until the vectorized passes are memory-bound with nothing left
to amortize). The ``auto`` backend plans before it executes:

1. :func:`extract_features` takes the executor's own partitions
   (:func:`~repro.engine.batch_backend.partition_points`) and derives
   each one's predictors *without synthesizing anything*: stack width,
   waveform length in samples (exact — the composite is the payload
   upsampled to the MPX rate), stereo/fading mix, measure-driven flag,
   and ambient-cache warmth probed through
   :meth:`~repro.engine.cache.AmbientCache.contains` on the keys
   :func:`~repro.engine.batch_backend.composite_entry` gives the process
   backend's store warm-up.
2. :func:`estimate` prices each partition at width 1 (``serial``), at
   the memory-capped width (``batched``) and on the pools with an
   analytic model parameterized by a small set of calibration constants
   (per-point dispatch cost, serial and vectorized per-sample
   throughputs at short/long row anchors, process-pool spawn cost, ...).
   Defaults ship in a versioned ``calibration.json`` measured once;
   ``repro-calibrate`` (``python -m repro.engine.planner``) re-measures
   them for the host in a few seconds, and ``REPRO_PLANNER_CALIBRATION``
   points the planner at the result.
3. :func:`plan_sweep` picks the cheapest option per partition. The runner
   then runs every serial and batched partition in one executor call,
   each at its chosen width, and pool partitions on their pools. Every
   decision (executor, rows, predicted costs, feature vector) is recorded
   on :attr:`~repro.engine.results.SweepResult.plan` for audit and
   prediction-error scoring.

A grid whose links share a *live* stateful fading model is never priced
on the pools: such a model consumes one stream in grid order across
points, which only the single executor call preserves (see
:meth:`~repro.engine.scenario.Scenario.require_pool_safe`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.batch_backend import chunk_limit, composite_entry, partition_points
from repro.engine.cache import AmbientCache
from repro.engine.scenario import GridPoint, Scenario
from repro.errors import ConfigurationError
from repro.utils.env import fast_numerics

CALIBRATION_ENV_VAR = "REPRO_PLANNER_CALIBRATION"
"""Environment override: path to a ``repro-calibrate``-written JSON file.
A set-but-unreadable/invalid path raises :class:`ConfigurationError`
naming the variable — never a silent fall-back to defaults."""

DEFAULT_CALIBRATION_PATH = Path(__file__).with_name("calibration.json")
"""The versioned default constants shipped with the package."""

CALIBRATION_VERSION = 1

_MPX_PER_AUDIO = int(round(MPX_RATE_HZ / AUDIO_RATE_HZ))


@dataclass(frozen=True)
class CalibrationConstants:
    """Host-measured constants parameterizing the analytic cost model.

    Times are seconds unless the name says ``_ns`` (nanoseconds per
    sample — per-sample throughputs are sub-microsecond, and ns keeps the
    JSON readable). The vectorized per-sample cost is log-interpolated
    between two measured row-length anchors: short rows admit wide stacks
    whose dispatch amortization makes vector throughput *better* than
    serial, long rows narrow the chunker until it is *worse* (the
    measured Fig. 8 regression). Defaults here are conservative
    fallbacks; the shipped ``calibration.json`` overrides them with
    measured values.
    """

    point_overhead_s: float = 4.0e-3
    """Fixed per-point cost of the serial path (chain build, filter
    design, resampler setup, Python dispatch)."""

    serial_sample_ns: float = 110.0
    """Per-IQ-sample cost of the serial link + mono receive path."""

    vector_sample_short_ns: float = 55.0
    """Vectorized per-sample cost at (and below) ``short_row_samples``."""

    vector_sample_long_ns: float = 180.0
    """Vectorized per-sample cost at (and above) ``long_row_samples``."""

    short_row_samples: int = 30_000
    """Row-length anchor for ``vector_sample_short_ns``."""

    long_row_samples: int = 200_000
    """Row-length anchor for ``vector_sample_long_ns``."""

    chunk_setup_s: float = 1.0e-3
    """Per-chunk cost of one stacked transmit + demodulate pass."""

    stereo_serial_factor: float = 3.0
    """Serial sample-cost multiplier when the receiver stereo-decodes
    (the scalar pilot PLL dominates a stereo point)."""

    stereo_vector_factor: float = 1.5
    """Vectorized sample-cost multiplier for stereo partitions (the
    multi-waveform PLL amortizes most of the scalar cost)."""

    fading_serial_factor: float = 1.15
    """Serial sample-cost multiplier for a fading link (envelope
    synthesis + per-sample scaling)."""

    fading_vector_factor: float = 1.15
    """Vectorized sample-cost multiplier for a fading link (stacked
    envelope synthesis)."""

    thread_speedup: float = 1.0
    """Measured whole-grid speedup of the thread pool over serial (the
    per-point NumPy work rarely releases the GIL long enough to win)."""

    process_spawn_s: float = 0.35
    """Process-pool spawn + worker warm-up cost (paid once per sweep)."""

    process_speedup: float = 1.0
    """Measured whole-grid compute speedup of the process pool over
    serial, spawn excluded (IPC + per-worker cache loads eat the rest).
    The conservative default means pools are only ever *chosen* on hosts
    where ``repro-calibrate`` measured a real win."""

    synth_sample_ns: float = 700.0
    """Per-sample cost of one cold front-end synthesis (program audio +
    composite MPX + FM modulation), paid once per cold partition on
    every backend alike."""

    fast_vector_factor: float = 0.75
    """Vectorized sample-cost multiplier applied under
    ``REPRO_NUMERICS=fast``: the fused 2-D kernels and single-precision
    receive chain cut the batched path's per-sample cost by roughly a
    quarter on the measured grids, which shifts the serial/batched
    crossover toward wider use of the batched executor. Serial costs are
    left unscaled — fast mode's fusion only pays off across rows."""

    def vector_sample_ns(self, n_samples: int) -> float:
        """Per-sample vectorized cost at a given row length.

        Log-linear interpolation between the two measured anchors,
        clamped outside them: the regime change is driven by the chunk
        working set crossing the cache hierarchy, which tracks the
        *ratio* of row lengths rather than their difference.
        """
        lo, hi = self.short_row_samples, self.long_row_samples
        if n_samples <= lo or hi <= lo:
            return self.vector_sample_short_ns
        if n_samples >= hi:
            return self.vector_sample_long_ns
        frac = math.log(n_samples / lo) / math.log(hi / lo)
        return (
            self.vector_sample_short_ns
            + frac * (self.vector_sample_long_ns - self.vector_sample_short_ns)
        )

    def to_payload(self, host: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """The JSON document ``repro-calibrate`` writes."""
        return {
            "version": CALIBRATION_VERSION,
            "host": dict(host) if host is not None else host_context(),
            "constants": dataclasses.asdict(self),
        }


def host_context() -> Dict[str, object]:
    """CPU/numpy/platform fingerprint stored beside measured constants.

    Shared with the benchmark artifact writer, so crossover constants in
    the perf trajectory stay interpretable across machines.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def load_calibration(path: Optional[str] = None) -> CalibrationConstants:
    """The active calibration constants, strictly parsed.

    Resolution order: explicit ``path`` argument, the
    ``REPRO_PLANNER_CALIBRATION`` environment variable, the packaged
    ``calibration.json``, and finally the dataclass defaults (only when
    the packaged file is missing, e.g. a source tree stripped of data
    files). A path the *user* named must exist and parse — a typo'd
    override silently planning with defaults would be worse than the
    crash.
    """
    source = "argument"
    if path is None:
        path = os.environ.get(CALIBRATION_ENV_VAR, "").strip() or None
        source = CALIBRATION_ENV_VAR
    if path is None:
        if not DEFAULT_CALIBRATION_PATH.exists():
            return CalibrationConstants()
        path, source = str(DEFAULT_CALIBRATION_PATH), "default"
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"planner calibration file {path!r} (from {source}) is unreadable: {exc}"
        ) from None
    if not isinstance(payload, dict) or payload.get("version") != CALIBRATION_VERSION:
        raise ConfigurationError(
            f"planner calibration file {path!r} has version "
            f"{payload.get('version')!r}, expected {CALIBRATION_VERSION} "
            "(re-run repro-calibrate)"
        )
    constants = payload.get("constants")
    if not isinstance(constants, dict):
        raise ConfigurationError(
            f"planner calibration file {path!r} has no 'constants' table"
        )
    known = {f.name for f in dataclasses.fields(CalibrationConstants)}
    unknown = sorted(set(constants) - known)
    if unknown:
        raise ConfigurationError(
            f"planner calibration file {path!r} has unknown constants "
            f"{unknown} (version skew? re-run repro-calibrate)"
        )
    return CalibrationConstants(**constants)


@dataclass(frozen=True)
class PartitionFeatures:
    """Per-partition predictors the cost model prices.

    Attributes:
        label: human-readable partition tag (receiver kind + decode mode
            + row length), stable enough to grep in a recorded plan.
        positions: positions into the *run's* point list (after any
            ``point_slice``), in grid order.
        n_points: stack width (grid points sharing this partition).
        n_samples: IQ samples per row — exact by construction, the
            payload length upsampled to the MPX rate.
        stereo: partition decodes through the stereo (multi-waveform
            PLL) batch rather than the mono batch.
        fading_points: how many of the points carry a fading link.
        measure_driven: the measure transmits internally (no
            runner-performed transmission exists to vectorize).
        cache_warm: the partition's front-end composite is already in
            the ambient cache (memory or disk store probe) — a cold one
            pays one synthesis regardless of executor.
        chunk_rows: rows of one vectorized chunk under the current
            ``REPRO_BATCH_MAX_MB`` budget (capped by the stack width).
    """

    label: str
    positions: Tuple[int, ...]
    n_points: int
    n_samples: int
    stereo: bool
    fading_points: int
    measure_driven: bool
    cache_warm: bool
    chunk_rows: int

    def as_dict(self) -> Dict[str, object]:
        record = dataclasses.asdict(self)
        record["positions"] = list(self.positions)
        return record


@dataclass(frozen=True)
class PlanDecision:
    """One partition's audited planning outcome, recorded on the result.

    Attributes:
        partition: the partition's feature label.
        point_indices: ``GridPoint.index`` of every member, grid order —
            global indices, so shard plans merge unambiguously.
        backend: the executor chosen for the partition.
        chunk_rows: the row width the partition runs at (1 for serial
            and the pools).
        predicted_s: the cost model's estimate per candidate executor.
        features: the feature vector the decision was priced on.
    """

    partition: str
    point_indices: Tuple[int, ...]
    backend: str
    chunk_rows: int
    predicted_s: Mapping[str, float]
    features: Mapping[str, object]


@dataclass
class SweepPlan:
    """Everything ``auto`` decided for one grid."""

    decisions: List[PlanDecision]
    by_backend: Dict[str, List[int]]
    label: str


def extract_features(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> List[PartitionFeatures]:
    """Derive the predictors of each of the executor's partitions.

    Cheap by construction: builds chain/stage value objects and probes
    cache keys, but never synthesizes a waveform or a receiver noise
    stream.
    """
    features: List[PartitionFeatures] = []
    for part in partition_points(scenario, data, points, cache):
        positions = tuple(part.positions)
        if scenario.measure_driven:
            features.append(
                PartitionFeatures(
                    label="measure-driven",
                    positions=positions,
                    n_points=len(positions),
                    n_samples=0,
                    stereo=False,
                    fading_points=0,
                    measure_driven=True,
                    cache_warm=True,
                    chunk_rows=1,
                )
            )
            continue
        n_samples = int(part.payload.shape[-1]) * _MPX_PER_AUDIO
        warm = False
        if cache is not None and scenario.cache_ambient:
            _, _, composite_key = composite_entry(
                scenario, points[positions[0]], part.payload, cache, ambient_master
            )
            warm = cache.contains(composite_key)
        features.append(
            PartitionFeatures(
                label=(
                    f"{part.stage.receiver_kind}/{'stereo' if part.stereo else 'mono'}"
                    f"@{n_samples}"
                ),
                positions=positions,
                n_points=len(positions),
                n_samples=n_samples,
                stereo=part.stereo,
                fading_points=sum(chain.fading is not None for chain in part.chains),
                measure_driven=False,
                cache_warm=warm,
                chunk_rows=min(len(positions), chunk_limit(n_samples)),
            )
        )
    return features


def estimate(
    features: PartitionFeatures,
    calibration: Optional[CalibrationConstants] = None,
    max_workers: int = 1,
    picklable: bool = False,
) -> Dict[str, float]:
    """Predicted wall-clock seconds of one partition per executor.

    Executors a partition cannot run on are omitted: ``batched`` (a width
    above 1) and the pools need more than one point, and ``process`` a
    picklable scenario. Measure-driven partitions price only
    ``serial`` — the engine knows nothing about the inside of their
    measures, and guessing would let noise flip the default away from
    the reference semantics.
    """
    c = calibration if calibration is not None else load_calibration()
    if features.measure_driven:
        return {"serial": features.n_points * c.point_overhead_s}

    p, s = features.n_points, features.n_samples
    fading_frac = features.fading_points / p if p else 0.0
    synth_s = 0.0 if features.cache_warm else s * c.synth_sample_ns * 1e-9

    serial_mix = 1.0 + fading_frac * (c.fading_serial_factor - 1.0)
    if features.stereo:
        serial_mix *= c.stereo_serial_factor
    serial_s = synth_s + p * (
        c.point_overhead_s + s * c.serial_sample_ns * 1e-9 * serial_mix
    )
    costs = {"serial": serial_s}

    if p > 1 and max_workers > 1:
        # Calibrated pool speedups can't exceed the workers available to
        # *this* runner — on a single-worker host pools never win.
        thread_eff = min(c.thread_speedup, float(max_workers))
        costs["thread"] = synth_s + (serial_s - synth_s) / max(thread_eff, 1e-6)
        if picklable:
            # The parent warms the shared store, so synthesis is serial
            # either way; only the compute scales with the pool.
            process_eff = min(c.process_speedup, float(max_workers))
            costs["process"] = (
                synth_s
                + c.process_spawn_s
                + (serial_s - synth_s) / max(process_eff, 1e-6)
            )
    if p > 1:
        vector_mix = 1.0 + fading_frac * (c.fading_vector_factor - 1.0)
        if features.stereo:
            vector_mix *= c.stereo_vector_factor
        if fast_numerics():
            vector_mix *= c.fast_vector_factor
        n_chunks = math.ceil(p / features.chunk_rows)
        costs["batched"] = (
            synth_s
            + n_chunks * c.chunk_setup_s
            + p * s * c.vector_sample_ns(s) * 1e-9 * vector_mix
        )
    return costs


def plan_sweep(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
    ambient_master: int,
    max_workers: int = 1,
    calibration: Optional[CalibrationConstants] = None,
) -> SweepPlan:
    """Choose the cheapest executor (and row width) per partition."""
    calibration = calibration if calibration is not None else load_calibration()
    features = extract_features(scenario, data, points, cache, ambient_master)
    if scenario.shares_live_fading:
        max_workers = 1  # never price pools (see module docstring)
    picklable = False
    if not scenario.measure_driven and len(points) > 1 and max_workers > 1:
        try:
            scenario.require_picklable()
            picklable = True
        except ConfigurationError:
            picklable = False

    predictions = [
        estimate(f, calibration, max_workers=max_workers, picklable=picklable)
        for f in features
    ]
    choices = [min(costs, key=costs.get) for costs in predictions]

    decisions: List[PlanDecision] = []
    by_backend: Dict[str, List[int]] = {}
    for f, costs, backend in zip(features, predictions, choices):
        decisions.append(
            PlanDecision(
                partition=f.label,
                point_indices=tuple(points[pos].index for pos in f.positions),
                backend=backend,
                chunk_rows=f.chunk_rows if backend == "batched" else 1,
                predicted_s={k: round(v, 6) for k, v in costs.items()},
                features=f.as_dict(),
            )
        )
        by_backend.setdefault(backend, []).extend(f.positions)
    for positions in by_backend.values():
        positions.sort()
    label = "auto[" + "+".join(
        f"{backend}:{len(by_backend[backend])}" for backend in sorted(by_backend)
    ) + "]"
    return SweepPlan(decisions=decisions, by_backend=by_backend, label=label)


# --------------------------------------------------------------------------
# Calibration: measure the constants on this host with tiny real sweeps.
# --------------------------------------------------------------------------


def _calibration_measure(run):
    """Module-level measure (picklable) used by calibration sweeps."""
    return float(np.mean(np.abs(run.received.mono)))


def _calibration_scenario(
    name: str,
    n_points: int,
    duration_s: float,
    stereo: bool = False,
    fading: bool = False,
):
    """A one-partition link-budget grid: ``n_points`` rows of
    ``duration_s`` payload through the silence front end."""
    from repro.audio.tones import tone
    from repro.engine.scenario import Scenario, SweepSpec

    payload = tone(1000.0, duration_s, AUDIO_RATE_HZ, amplitude=0.9)
    base_chain = {
        "program": "silence",
        "power_dbm": -40.0,
        "stereo_decode": stereo,
        "back_amplitude": 0.25,
    }
    if fading:
        from repro.channel.fading import MotionFadingSpec

        base_chain["fading"] = MotionFadingSpec("running")
    return Scenario(
        name=name,
        sweep=SweepSpec.grid(distance_ft=tuple(2 + i for i in range(n_points))),
        prepare=lambda gen: {"payload": payload},
        base_chain=base_chain,
        chain_axes=("distance_ft",),
        payload="payload",
        measure=_calibration_measure,
    )


def _time_backend(scenario, backend: str, cache, repeats: int = 2, **kwargs) -> float:
    """Best-of-``repeats`` wall time of one warm run (seconds)."""
    from repro.engine.runner import SweepRunner

    best = math.inf
    for _ in range(repeats):
        result = SweepRunner(
            scenario, rng=2017, cache=cache, backend=backend, **kwargs
        ).run()
        best = min(best, result.elapsed_s)
    return best


def calibrate(quick: bool = False) -> CalibrationConstants:
    """Measure the cost-model constants on this host (a few seconds).

    Runs small *real* sweeps — the same code paths the planner prices —
    and solves for the constants: two serial mono grids at a short and a
    long row length pin the per-point overhead and serial throughput;
    their batched counterparts pin the vectorized throughput anchors; a
    cold-vs-warm pair prices synthesis; stereo/fading variants measure
    the mix multipliers; and (unless ``quick``) a thread run, a process
    run and a bare pool spawn price the pool backends.
    """
    d = CalibrationConstants()
    cache = AmbientCache()
    p_short, dur_short = 16, 0.05
    p_long, dur_long = 6, 0.4
    s_short = int(dur_short * AUDIO_RATE_HZ) * _MPX_PER_AUDIO
    s_long = int(dur_long * AUDIO_RATE_HZ) * _MPX_PER_AUDIO
    short = _calibration_scenario("calib_short", p_short, dur_short)
    long_ = _calibration_scenario("calib_long", p_long, dur_long)

    # Cold pass: warms the cache for everything below AND prices one
    # synthesis (cold minus warm, divided by the composite length).
    t_cold_long = _time_backend(long_, "serial", cache, repeats=1)
    t_serial_short = _time_backend(short, "serial", cache)
    t_serial_long = _time_backend(long_, "serial", cache)
    synth_sample_ns = max(
        (t_cold_long - t_serial_long) / s_long * 1e9, 1.0
    )

    per_point_short = t_serial_short / p_short
    per_point_long = t_serial_long / p_long
    serial_sample_ns = max(
        (per_point_long - per_point_short) / (s_long - s_short) * 1e9, 1.0
    )
    point_overhead_s = max(
        per_point_short - s_short * serial_sample_ns * 1e-9, 1.0e-5
    )

    def vector_ns(t_batched: float, p: int, s: int) -> float:
        n_chunks = math.ceil(p / max(1, min(p, chunk_limit(s))))
        return max((t_batched - n_chunks * d.chunk_setup_s) / (p * s) * 1e9, 1.0)

    t_batched_short = _time_backend(short, "batched", cache)
    t_batched_long = _time_backend(long_, "batched", cache)
    vector_short = vector_ns(t_batched_short, p_short, s_short)
    vector_long = vector_ns(t_batched_long, p_long, s_long)

    constants = {
        "point_overhead_s": point_overhead_s,
        "serial_sample_ns": serial_sample_ns,
        "vector_sample_short_ns": vector_short,
        "vector_sample_long_ns": vector_long,
        "short_row_samples": s_short,
        "long_row_samples": s_long,
        "synth_sample_ns": synth_sample_ns,
    }
    if not quick:
        interp = CalibrationConstants(**constants)
        p_mix, dur_mix = 8, 0.1
        s_mix = int(dur_mix * AUDIO_RATE_HZ) * _MPX_PER_AUDIO
        base_serial_s = s_mix * serial_sample_ns * 1e-9
        base_vector_s = s_mix * interp.vector_sample_ns(s_mix) * 1e-9

        stereo = _calibration_scenario("calib_stereo", p_mix, dur_mix, stereo=True)
        _time_backend(stereo, "serial", cache, repeats=1)  # warm its composite
        t_ss = _time_backend(stereo, "serial", cache)
        t_sb = _time_backend(stereo, "batched", cache)
        constants["stereo_serial_factor"] = max(
            (t_ss / p_mix - point_overhead_s) / base_serial_s, 1.0
        )
        constants["stereo_vector_factor"] = max(
            vector_ns(t_sb, p_mix, s_mix) * 1e-9 * s_mix / base_vector_s, 1.0
        )

        fading = _calibration_scenario("calib_fade", p_mix, dur_mix, fading=True)
        _time_backend(fading, "serial", cache, repeats=1)
        t_fs = _time_backend(fading, "serial", cache)
        t_fb = _time_backend(fading, "batched", cache)
        constants["fading_serial_factor"] = max(
            (t_fs / p_mix - point_overhead_s) / base_serial_s, 1.0
        )
        constants["fading_vector_factor"] = max(
            vector_ns(t_fb, p_mix, s_mix) * 1e-9 * s_mix / base_vector_s, 1.0
        )

        workers = min(4, os.cpu_count() or 1)
        if workers > 1:
            t_thread = _time_backend(
                short, "thread", cache, max_workers=workers
            )
            constants["thread_speedup"] = min(
                max(t_serial_short / max(t_thread, 1e-6), 0.5), float(workers)
            )

            import time
            from concurrent.futures import ProcessPoolExecutor

            t0 = time.perf_counter()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                list(pool.map(int, range(workers)))
            spawn_s = time.perf_counter() - t0
            t_process = _time_backend(
                short, "process", cache, repeats=1, max_workers=workers
            )
            constants["process_spawn_s"] = spawn_s
            constants["process_speedup"] = min(
                max(
                    t_serial_short / max(t_process - spawn_s, 1e-3), 0.1
                ),
                float(workers),
            )
    return CalibrationConstants(**constants)


def write_calibration(
    constants: CalibrationConstants, path: os.PathLike
) -> None:
    """Atomically write a ``repro-calibrate`` JSON document."""
    import tempfile

    target = Path(path)
    payload = json.dumps(constants.to_payload(), indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-calibrate``: measure this host, write ``calibration.json``."""
    import argparse

    default_out = os.environ.get(CALIBRATION_ENV_VAR, "").strip() or str(
        DEFAULT_CALIBRATION_PATH
    )
    parser = argparse.ArgumentParser(
        prog="repro-calibrate",
        description=(
            "Measure the sweep planner's cost-model constants on this host "
            "(a few seconds of micro-sweeps) and write them as JSON. Point "
            f"{CALIBRATION_ENV_VAR} at the output to activate it."
        ),
    )
    parser.add_argument(
        "-o",
        "--output",
        default=default_out,
        help=f"output path (default: {default_out})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the stereo/fading/pool measurements (ship defaults)",
    )
    args = parser.parse_args(argv)
    constants = calibrate(quick=args.quick)
    write_calibration(constants, args.output)
    print(f"wrote {args.output}")
    for name, value in sorted(dataclasses.asdict(constants).items()):
        print(f"  {name:>24} = {value:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
