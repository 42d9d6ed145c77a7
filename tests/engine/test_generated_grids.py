"""Generated grids: the stacked executor equals the point oracle.

Hypothesis draws small sweep grids across the axes the executor
branches on — phone or car receiver, stereo decode on or off, no fading
or a :class:`MotionFadingSpec`, ambient caching on or off, a runner
payload or a measure that transmits itself — then a row width from 1 to
the slice size and a ``point_slice``. Every value
:func:`run_batched_backend` returns must equal the point oracle's
byte for byte.

A second property drives whole runs through :class:`SweepRunner`: a
backend (``serial``, ``batched``, ``thread`` or ``auto``), a worker
count, rows on both sides of ``auto``'s width rule and a
``point_slice``. Results must not depend on any of those choices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.audio.tones import tone
from repro.channel.fading import MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.engine import AmbientCache, PayloadSelector, Scenario, SweepRunner, SweepSpec
from repro.engine.batch_backend import run_batched_backend
from repro.engine.runner import derive_streams
from repro.utils.env import fast_numerics
from repro.utils.rand import as_generator

from point_oracle import oracle_values, same_bytes

SEED = 2017
PAYLOAD = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)


def _received(run):
    """Module-level measure: the runner-transmitted reception."""
    return (run.received.left, run.received.right, run.received.stereo_locked)


def _transmit_in_measure(run):
    """Module-level measure that performs its own transmission."""
    received = run.chain.transmit(run.data["payload"], run.rng)
    return (received.left, received.right, received.stereo_locked)


@st.composite
def grids(draw):
    powers = draw(st.lists(st.sampled_from((-20.0, -40.0)), min_size=1, max_size=2, unique=True))
    distances = draw(st.lists(st.sampled_from((2, 12, 27)), min_size=1, max_size=3, unique=True))
    base_chain = {
        "program": draw(st.sampled_from(("silence", "news"))),
        "receiver_kind": draw(st.sampled_from(("smartphone", "car"))),
        "stereo_decode": draw(st.booleans()),
        "back_amplitude": 0.5,
    }
    if draw(st.booleans()):
        base_chain["fading"] = MotionFadingSpec("running")
    measure_driven = draw(st.booleans())
    return Scenario(
        name="generated",
        sweep=SweepSpec.grid(power_dbm=tuple(powers), distance_ft=tuple(distances)),
        prepare=lambda gen: {"payload": PAYLOAD},
        base_chain=base_chain,
        chain_axes=("power_dbm", "distance_ft"),
        payload=None if measure_driven else "payload",
        measure=_transmit_in_measure if measure_driven else _received,
        cache_ambient=draw(st.booleans()),
    )


@pytest.mark.skipif(
    fast_numerics(),
    reason="bit-identity is an exact-numerics contract; REPRO_NUMERICS=fast "
    "is gated by the tolerance golden tier",
)
@settings(max_examples=15, deadline=None, database=None)
@given(scenario=grids(), data=st.data())
def test_executor_equals_the_point_oracle(scenario, data):
    n_points = scenario.sweep.n_points
    start = data.draw(st.integers(0, n_points - 1), label="start")
    stop = data.draw(st.integers(start + 1, n_points), label="stop")
    rows = data.draw(st.integers(1, stop - start), label="rows")

    prepared, points, seeds, ambient_master = derive_streams(scenario, as_generator(SEED))
    cache = AmbientCache() if scenario.cache_ambient else None
    values = run_batched_backend(
        scenario, prepared, points[start:stop], seeds[start:stop], cache,
        ambient_master, rows=rows,
    )
    reference = oracle_values(scenario, SEED, point_slice=(start, stop))
    assert same_bytes(values, reference)
    assert all(np.asarray(left).size for left, _, _ in values)


# 0.02 s rows (9,600 MPX samples) stack under ``auto``; 0.36 s rows
# (172,800 samples, 7 to a pass) run at width 1.
SHORT_ROW = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
LONG_ROW = tone(1000.0, 0.36, AUDIO_RATE_HZ, amplitude=0.9)


def _two_rows(gen):
    return {"short": SHORT_ROW, "long": LONG_ROW}


@st.composite
def runs(draw):
    rows = draw(st.lists(st.sampled_from(("short", "long")), min_size=1, max_size=2, unique=True))
    distances = draw(st.lists(st.sampled_from((2, 12, 27)), min_size=1, max_size=3, unique=True))
    scenario = Scenario(
        name="generated-run",
        sweep=SweepSpec.grid(row=tuple(rows), distance_ft=tuple(distances)),
        prepare=_two_rows,
        base_chain={
            "program": "silence",
            "stereo_decode": draw(st.booleans()),
            "back_amplitude": 0.5,
        },
        chain_axes=("distance_ft",),
        payload=PayloadSelector("row", {"short": "short", "long": "long"}),
        measure=_received,
    )
    n_points = scenario.sweep.n_points
    start = draw(st.integers(0, n_points - 1), label="start")
    stop = draw(st.integers(start + 1, n_points), label="stop")
    backend = draw(st.sampled_from(("serial", "batched", "thread", "auto")))
    return scenario, backend, draw(st.sampled_from((1, 2))), (start, stop)


@pytest.mark.skipif(
    fast_numerics(),
    reason="bit-identity is an exact-numerics contract; REPRO_NUMERICS=fast "
    "is gated by the tolerance golden tier",
)
@settings(max_examples=20, deadline=None, database=None)
@given(run=runs())
def test_runner_equals_the_point_oracle(run):
    scenario, backend, max_workers, point_slice = run
    result = SweepRunner(
        scenario, rng=SEED, cache=AmbientCache(), backend=backend,
        max_workers=max_workers,
    ).run(point_slice)
    assert same_bytes(result.values, oracle_values(scenario, SEED, point_slice=point_slice))
    if result.plan is not None:
        planned = sorted(i for d in result.plan for i in d.point_indices)
        assert planned == [point.index for point in result.points]
