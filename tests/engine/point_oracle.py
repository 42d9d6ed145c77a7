"""The per-point executor the stacked one replaced: a reference for bit-identity.

:func:`execute_point` is the engine's former single-point path, kept
verbatim: build the point generator from its pre-derived seed, attach
the cached ambient, and let :meth:`ExperimentChain.transmit` consume the
station, link and receiver children in order. Every backend now runs
:func:`repro.engine.batch_backend.run_batched_backend` at some row
width; the tests compare its values with this oracle's, so no backend
is checked only against another backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.batch_backend import make_ambient
from repro.engine.cache import AmbientCache
from repro.engine.results import SweepResult
from repro.engine.runner import derive_streams
from repro.engine.scenario import GridPoint, PointRun, Scenario
from repro.errors import ConfigurationError
from repro.utils.rand import RngLike, as_generator


def execute_point(
    scenario: Scenario,
    point: GridPoint,
    seed: int,
    data: Dict[str, object],
    cache: Optional[AmbientCache],
    ambient_master: int,
) -> object:
    """Run one grid point to its measured value.

    Args:
        scenario: the sweep being executed.
        point: the grid cell.
        seed: the point's pre-derived stream seed (already mixed from the
            sweep master and the scenario's per-point keys).
        data: the shared dict from ``scenario.prepare``.
        cache: ambient cache for this process (``None`` disables caching).
        ambient_master: sweep-level ambient seed.
    """
    point_rng = np.random.default_rng(seed)
    ambient = make_ambient(scenario, point, cache, ambient_master)
    chain = None
    received = None
    if scenario.uses_chain:
        # Imported here: repro.experiments.common is a consumer of the
        # engine package in every other respect.
        from repro.experiments.common import ExperimentChain

        chain = ExperimentChain(**scenario.chain_kwargs(point))
        chain.ambient_source = ambient
    payload = scenario.payload_for(point, data)
    if payload is not None:
        if chain is None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} declares a payload but no chain "
                "(set base_chain / chain_axes / chain_value_params)"
            )
        received = chain.transmit(payload, point_rng)
    run = PointRun(
        point=point,
        rng=point_rng,
        data=data,
        ambient=ambient,
        chain=chain,
        received=received,
    )
    return scenario.measure(run, **scenario.measure_params)


def oracle_result(
    scenario: Scenario,
    rng: RngLike = None,
    cache: Optional[AmbientCache] = None,
    point_slice: Optional[Tuple[int, int]] = None,
    **_: object,
) -> SweepResult:
    """The grid run point by point through :func:`execute_point`.

    Derives the streams exactly as :class:`~repro.engine.runner.SweepRunner`
    does (the whole grid first, then the slice), so the result lines up
    with a runner's for the same arguments. A call-compatible stand-in
    for :func:`repro.engine.run_scenario` (extra keywords are ignored).
    """
    data, points, seeds, ambient_master = derive_streams(scenario, as_generator(rng))
    start, stop = point_slice if point_slice is not None else (0, len(points))
    if not scenario.cache_ambient:
        cache = None
    elif cache is None:
        cache = AmbientCache()
    return SweepResult(
        spec=scenario.sweep,
        points=points[start:stop],
        values=[
            execute_point(scenario, points[i], seeds[i], data, cache, ambient_master)
            for i in range(start, stop)
        ],
        data=data,
        backend="oracle",
        scenario_name=scenario.name,
    )


def oracle_values(scenario: Scenario, rng: RngLike = None, **kwargs) -> List[object]:
    """:func:`oracle_result`'s values."""
    return oracle_result(scenario, rng, **kwargs).values


def same_bytes(values: object, reference: object) -> bool:
    """Byte equality, recursing through dicts, lists and tuples: every leaf
    must agree in dtype, shape and ``tobytes()`` (so NaNs compare equal
    and a float never passes for a float32)."""
    if isinstance(reference, dict):
        return (
            isinstance(values, dict)
            and values.keys() == reference.keys()
            and all(same_bytes(values[k], reference[k]) for k in reference)
        )
    if isinstance(reference, (list, tuple)):
        return (
            type(values) is type(reference)
            and len(values) == len(reference)
            and all(same_bytes(v, r) for v, r in zip(values, reference))
        )
    ours, theirs = np.asarray(values), np.asarray(reference)
    if theirs.dtype == object:
        return values == reference
    return (
        ours.dtype == theirs.dtype
        and ours.shape == theirs.shape
        and ours.tobytes() == theirs.tobytes()
    )
