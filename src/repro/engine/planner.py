"""The ``auto`` width rule: width 1 or a stacked pass, per partition.

Every backend runs grid points through one executor,
:func:`~repro.engine.batch_backend.run_batched_backend`, at some row
width. ``auto`` picks that width per partition of the executor
(:func:`~repro.engine.batch_backend.partition_points`) with one rule,
read off the partition without synthesizing anything:

- a partition runs *stacked* — label ``batched``, width
  ``min(n_points, chunk_limit(n_samples))`` — when it has more than one
  point, is not measure-driven, and either decodes stereo or its
  memory-capped pass holds at least :data:`MIN_STACK_ROWS` rows;
- every other partition runs at width 1 (label ``serial``).

The runner then runs the whole grid in one executor call, each
partition at its width, and records every decision on
:attr:`~repro.engine.results.SweepResult.plan`. ``auto`` never runs a
pool: the thread and process backends are chosen by name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.constants import AUDIO_RATE_HZ, MPX_RATE_HZ
from repro.engine.batch_backend import chunk_limit, partition_points
from repro.engine.cache import AmbientCache
from repro.engine.scenario import GridPoint, Scenario

MIN_STACK_ROWS = 8
"""Fewest rows per memory-capped pass for a mono partition to run stacked.

Under the default 64 MB ``REPRO_BATCH_MAX_MB`` cap, 8 rows means rows of
at most 166,666 MPX samples. Measured on a 2-vCPU host with a warm cache
(7 runs each, medians): the fading grid's 31,200-sample rows fit 42 to a
pass and run in 0.137 s stacked against 0.197 s at width 1; the Fig. 8
grid's 192,000-sample rows fit 6 and run in 0.920 s against 0.953 s but
peak at 181 MB against 138 MB; a 24-point Fig. 9 grid's 480,000-sample
rows fit 2 and run in 1.59 s against 1.55 s. Below 8 rows stacking buys
no time and costs memory. Stereo partitions stack at any width: the
pilot PLL advances all rows of a stereo partition together (an 8-point
Fig. 13 grid at 2 rows per pass: 1.68 s stacked against 2.19 s)."""

_MPX_PER_AUDIO = int(round(MPX_RATE_HZ / AUDIO_RATE_HZ))


@dataclass(frozen=True)
class PlanDecision:
    """One partition's width decision, recorded on the result.

    Attributes:
        partition: receiver kind, decode mode and row length in MPX
            samples (e.g. ``smartphone/mono@192000``), or
            ``measure-driven``.
        point_indices: ``GridPoint.index`` of every member, grid order —
            global indices, so shard plans merge unambiguously.
        backend: ``batched`` (stacked) or ``serial`` (width 1).
        chunk_rows: the row width the partition runs at.
    """

    partition: str
    point_indices: Tuple[int, ...]
    backend: str
    chunk_rows: int


@dataclass
class SweepPlan:
    """Everything ``auto`` decided for one grid."""

    decisions: List[PlanDecision]

    @property
    def rows(self) -> Mapping[int, int]:
        """Row width per ``GridPoint.index``: the executor's ``rows`` mapping."""
        return {i: d.chunk_rows for d in self.decisions for i in d.point_indices}

    @property
    def label(self) -> str:
        """``auto[batched:4+serial:4]``: points per chosen backend."""
        counts: Counter = Counter()
        for d in self.decisions:
            counts[d.backend] += len(d.point_indices)
        return "auto[" + "+".join(f"{b}:{counts[b]}" for b in sorted(counts)) + "]"


def plan_sweep(
    scenario: Scenario,
    data: Mapping[str, object],
    points: Sequence[GridPoint],
    cache: Optional[AmbientCache],
) -> SweepPlan:
    """Apply the width rule to each of the executor's partitions."""
    decisions: List[PlanDecision] = []
    for part in partition_points(scenario, data, points, cache):
        indices = tuple(points[pos].index for pos in part.positions)
        if scenario.measure_driven:
            decisions.append(PlanDecision("measure-driven", indices, "serial", 1))
            continue
        n_samples = int(part.payload.shape[-1]) * _MPX_PER_AUDIO
        limit = chunk_limit(n_samples)
        stacked = len(indices) > 1 and (part.stereo or limit >= MIN_STACK_ROWS)
        decisions.append(
            PlanDecision(
                partition=(
                    f"{part.stage.receiver_kind}/{'stereo' if part.stereo else 'mono'}"
                    f"@{n_samples}"
                ),
                point_indices=indices,
                backend="batched" if stacked else "serial",
                chunk_rows=min(len(indices), limit) if stacked else 1,
            )
        )
    return SweepPlan(decisions)
