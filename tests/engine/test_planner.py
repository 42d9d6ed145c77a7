"""Cost-model planner: features, calibration, decisions, auto execution.

The non-timing acceptance gates for ``REPRO_SWEEP_BACKEND=auto`` live
here: under the *shipped* calibration the planner must route the
known-regressing long-row Fig. 8 grid away from the batched executor and
the short-row fading grid onto it — pure cost-model arithmetic over the
committed ``calibration.json``, so CI checks the crossover without
trusting wall clocks. Decision tests that need a *specific* crossover
pin their own constants through ``REPRO_PLANNER_CALIBRATION``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import BodyMotionFading, MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.data.bits import random_bits
from repro.engine import (
    AmbientCache,
    AxisRef,
    CalibrationConstants,
    Scenario,
    SweepRunner,
    SweepSpec,
    load_calibration,
    plan_sweep,
)
from repro.engine.batch_backend import partition_points, run_batched_backend
from repro.engine.planner import (
    CALIBRATION_VERSION,
    DEFAULT_CALIBRATION_PATH,
    estimate,
    extract_features,
)
from repro.errors import ConfigurationError
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig09_mrc as fig09
from repro.utils.env import fast_numerics
from repro.utils.rand import as_generator

from point_oracle import oracle_values

SEED = 2017


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def _prepared(scenario):
    """(data, points) the way the runner derives them before planning."""
    gen = as_generator(SEED)
    data = scenario.prepare(gen) if scenario.prepare is not None else {}
    return data, scenario.sweep.points()


def _tone_scenario(duration_s=0.05, n_points=4, **base_extra):
    payload = tone(1000.0, duration_s, AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name="plan",
        sweep=SweepSpec.grid(distance_ft=tuple(2 + i for i in range(n_points))),
        prepare=lambda gen: {"payload": payload},
        base_chain=dict(
            {"program": "silence", "stereo_decode": False}, **base_extra
        ),
        chain_axes=("distance_ft",),
        payload="payload",
        measure=_mean_abs,
    )


class TestCalibrationLoading:
    def test_shipped_calibration_loads(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLANNER_CALIBRATION", raising=False)
        assert DEFAULT_CALIBRATION_PATH.exists()
        constants = load_calibration()
        for name, value in dataclasses.asdict(constants).items():
            assert value > 0, name
        # The shipped constants must encode the measured crossover: the
        # vectorized path wins at the short-row anchor and loses (or at
        # best ties) serial at the long-row anchor.
        assert constants.vector_sample_short_ns < constants.serial_sample_ns
        assert constants.vector_sample_long_ns >= constants.vector_sample_short_ns

    def test_env_override_used(self, tmp_path, monkeypatch):
        constants = CalibrationConstants(serial_sample_ns=123.25)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(constants.to_payload()))
        monkeypatch.setenv("REPRO_PLANNER_CALIBRATION", str(path))
        assert load_calibration().serial_sample_ns == 123.25

    def test_version_skew_rejected(self, tmp_path, monkeypatch):
        payload = CalibrationConstants().to_payload()
        payload["version"] = CALIBRATION_VERSION + 1
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setenv("REPRO_PLANNER_CALIBRATION", str(path))
        with pytest.raises(ConfigurationError, match="version"):
            load_calibration()

    def test_unknown_constant_rejected(self, tmp_path, monkeypatch):
        payload = CalibrationConstants().to_payload()
        payload["constants"]["warp_factor"] = 9.0
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setenv("REPRO_PLANNER_CALIBRATION", str(path))
        with pytest.raises(ConfigurationError, match="warp_factor"):
            load_calibration()

    def test_malformed_json_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        monkeypatch.setenv("REPRO_PLANNER_CALIBRATION", str(path))
        with pytest.raises(ConfigurationError, match="unreadable"):
            load_calibration()

    def test_interpolation_clamps_at_anchors(self):
        c = CalibrationConstants(
            vector_sample_short_ns=50.0,
            vector_sample_long_ns=200.0,
            short_row_samples=10_000,
            long_row_samples=100_000,
        )
        assert c.vector_sample_ns(1_000) == 50.0
        assert c.vector_sample_ns(10_000) == 50.0
        assert c.vector_sample_ns(1_000_000) == 200.0
        mid = c.vector_sample_ns(31_623)  # ~log-midpoint
        assert 50.0 < mid < 200.0


class TestFeatureExtraction:
    def test_partitions_match_batched_executor_grouping(self):
        # One front-end group, two receiver partitions (phone mono + car
        # stereo) — the executor's own partitions, priced one by one.
        payload = tone(1000.0, 0.1, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="mixed",
            sweep=SweepSpec.grid(receiver=("smartphone", "car"), distance_ft=(2, 8)),
            prepare=lambda gen: {"payload": payload},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("distance_ft",),
            chain_value_params={
                "receiver": {
                    "smartphone": {"receiver_kind": "smartphone"},
                    "car": {"receiver_kind": "car"},
                }
            },
            payload="payload",
            measure=_mean_abs,
        )
        data, points = _prepared(scenario)
        features = extract_features(
            scenario, data, points, AmbientCache(), ambient_master=7
        )
        assert [f.positions for f in features] == [
            tuple(part.positions)
            for part in partition_points(scenario, data, points, AmbientCache())
        ]
        assert len(features) == 2
        by_stereo = {f.stereo: f for f in features}
        assert by_stereo[False].n_points == 2  # smartphone half
        assert by_stereo[True].n_points == 2  # car radio always stereo
        for f in features:
            # Exact row length: payload upsampled audio->MPX rate (x10).
            assert f.n_samples == payload.size * 10
            assert not f.cache_warm  # nothing synthesized yet
        covered = sorted(pos for f in features for pos in f.positions)
        assert covered == list(range(len(points)))

    def test_cache_warmth_probed_without_synthesis(self):
        scenario = _tone_scenario()
        data, points = _prepared(scenario)
        cache = AmbientCache()
        cold = extract_features(scenario, data, points, cache, ambient_master=7)
        assert not cold[0].cache_warm
        assert len(cache) == 0  # probing must not synthesize
        # One executed point fills the partition's shared composite entry
        # (warmth is keyed on the front end + master, not the point).
        run_batched_backend(scenario, data, points[:1], [123], cache, 7, rows=1)
        warm = extract_features(scenario, data, points, cache, ambient_master=7)
        assert warm[0].cache_warm

    def test_measure_driven_grid_is_one_serial_partition(self):
        scenario = Scenario(
            name="md",
            sweep=SweepSpec.grid(a=(1, 2, 3)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        features = extract_features(scenario, {}, scenario.sweep.points(), None, 0)
        assert len(features) == 1
        assert features[0].measure_driven
        costs = estimate(features[0])
        assert list(costs) == ["serial"]


class TestCostModel:
    def test_pools_require_workers_and_picklability(self):
        scenario = _tone_scenario()
        data, points = _prepared(scenario)
        features = extract_features(scenario, data, points, AmbientCache(), 0)
        solo = estimate(features[0], max_workers=1, picklable=True)
        assert "thread" not in solo and "process" not in solo
        pooled = estimate(features[0], max_workers=4, picklable=False)
        assert "thread" in pooled and "process" not in pooled
        full = estimate(features[0], max_workers=4, picklable=True)
        assert set(full) == {"serial", "thread", "process", "batched"}

    def test_batched_excluded_when_cache_off(self):
        # Without the shared cached front end every point synthesizes its
        # own, so each is a partition of one: nothing to stack.
        scenario = _tone_scenario()
        scenario.cache_ambient = False
        data, points = _prepared(scenario)
        features = extract_features(scenario, data, points, None, 0)
        assert [f.n_points for f in features] == [1] * len(points)
        assert all("batched" not in estimate(f) for f in features)


POLARIZED = CalibrationConstants(
    point_overhead_s=1e-4,
    serial_sample_ns=100.0,
    vector_sample_short_ns=20.0,
    vector_sample_long_ns=400.0,
    short_row_samples=30_000,
    long_row_samples=200_000,
)
"""Constants with an unambiguous crossover, for decision tests that must
not depend on the shipped (host-measured) numbers."""


class TestDecisionGates:
    """The crossover gates CI runs without trusting wall clocks."""

    @pytest.fixture(autouse=True)
    def default_calibration(self, monkeypatch):
        # "Under default calibration" is the contract being tested.
        monkeypatch.delenv("REPRO_PLANNER_CALIBRATION", raising=False)

    @pytest.mark.skipif(
        fast_numerics(),
        reason="fast_vector_factor intentionally moves the serial/batched "
        "crossover under REPRO_NUMERICS=fast; this gate encodes exact-mode "
        "pricing",
    )
    def test_never_batched_on_fig08_long_row_grid(self):
        # The grid the backend-matrix benchmark measures regressing ~2x
        # under batched: 100 bps payload -> 0.4 s waveform -> 192k-sample
        # rows that starve the chunker. The planner must never send it
        # to the batched executor.
        modem = fig08.make_modem("100bps")

        def prepare(gen):
            from repro.utils.rand import child_generator

            bits = random_bits(40, child_generator(gen, "payload", "100bps"))
            return {"bits": bits, "waveform": modem.modulate(bits)}

        scenario = Scenario(
            name="fig08",
            sweep=SweepSpec.grid(
                power_dbm=fig08.DEFAULT_POWERS_DBM,
                distance_ft=fig08.DEFAULT_DISTANCES_FT,
            ),
            prepare=prepare,
            base_chain={"program": "news", "stereo_decode": False},
            chain_axes=("power_dbm", "distance_ft"),
            rng_keys=("100bps", AxisRef("power_dbm"), AxisRef("distance_ft")),
            payload="waveform",
            measure=fig08.score_ber,
            measure_params={"modem": modem},
        )
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache(), ambient_master=1)
        assert plan.decisions, "a decision per partition is required"
        assert all(d.backend != "batched" for d in plan.decisions)

    def test_batched_on_fading_short_row_grid(self):
        from repro.data.fdm import FdmFskModem

        scenario = fig09.build_scenario(
            FdmFskModem(symbol_rate=200),
            distances_ft=(1, 2, 3, 4, 6, 8, 12, 16),
            max_factor=4,
            n_bits=100,
        )
        scenario.base_chain = dict(
            scenario.base_chain, fading=MotionFadingSpec("running")
        )
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, AmbientCache(), ambient_master=1)
        assert all(d.backend == "batched" for d in plan.decisions)
        covered = sorted(i for d in plan.decisions for i in d.point_indices)
        assert covered == list(range(len(points)))


class TestPlanExecution:
    @pytest.fixture(autouse=True)
    def polarized_calibration(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(POLARIZED.to_payload()))
        monkeypatch.setenv("REPRO_PLANNER_CALIBRATION", str(path))

    def test_auto_records_decision_per_partition(self):
        scenario = _tone_scenario(duration_s=0.05, n_points=4)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.plan is not None and len(result.plan) == 1
        decision = result.plan[0]
        assert decision.backend == "batched"  # short rows, polarized cal
        assert decision.point_indices == (0, 1, 2, 3)
        assert decision.chunk_rows >= 1
        assert set(decision.predicted_s) >= {"serial", "batched"}
        assert decision.features["n_samples"] == 24_000
        assert result.backend == "auto[batched:4]"

    def test_auto_with_cache_off_runs_serial(self):
        scenario = _tone_scenario(n_points=3)
        scenario.cache_ambient = False
        result = SweepRunner(scenario, rng=SEED, backend="auto").run()
        # One partition of one per point, each at width 1.
        assert [d.backend for d in result.plan] == ["serial"] * 3
        serial = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.values == serial.values

    @pytest.mark.skipif(
        fast_numerics(),
        reason="bit-identity with the oracle is an exact-numerics contract",
    )
    def test_live_fading_model_never_priced_on_pools(self):
        # A shared stateful fading model consumes its stream in grid
        # order across points. The executor draws its envelopes up front
        # in grid order, so serial and batched partitions may split the
        # grid freely within its one call — but pool workers would each
        # own a copy of the model, so pools are never priced.
        from repro.engine import PayloadSelector

        short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)

        def build(fading):
            return Scenario(
                name="live",
                sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2, 4)),
                prepare=lambda gen: {"short": short, "long": long_},
                base_chain={
                    "program": "silence",
                    "stereo_decode": False,
                    "fading": fading,
                },
                chain_axes=("distance_ft",),
                payload=PayloadSelector("row", {"short": "short", "long": "long"}),
                measure=_mean_abs,
            )

        live = build(BodyMotionFading("running", rng=7))
        data, points = _prepared(live)
        plan = plan_sweep(
            live, data, points, AmbientCache(), ambient_master=3, max_workers=4
        )
        assert {d.backend for d in plan.decisions} == {"batched", "serial"}
        for decision in plan.decisions:
            assert set(decision.predicted_s) == {"serial", "batched"}
        # The split run equals the point-by-point oracle (a fresh model
        # for each, so both start from the same stream state).
        result = SweepRunner(
            build(BodyMotionFading("running", rng=7)), rng=SEED,
            cache=AmbientCache(), backend="auto", max_workers=4,
        ).run()
        assert result.values == oracle_values(
            build(BodyMotionFading("running", rng=7)), SEED
        )

        # The declarative-spec twin of the same grid IS priced on pools.
        spec = build(MotionFadingSpec("running"))
        data, points = _prepared(spec)
        plan = plan_sweep(
            spec, data, points, AmbientCache(), ambient_master=3, max_workers=4
        )
        assert all("thread" in d.predicted_s for d in plan.decisions)

    def test_single_point_grid_short_circuits_without_plan(self):
        scenario = _tone_scenario(n_points=1)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.backend == "serial"
        assert result.plan is None
