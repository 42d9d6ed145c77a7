"""The ``auto`` width rule: decisions, paper grids, auto execution.

The non-timing acceptance gates for ``REPRO_SWEEP_BACKEND=auto`` live
here: the width rule must run the long-row Fig. 8 grid at width 1 and
stack the short-row fading grid, and it must give every paper grid the
decision the measurements behind :data:`MIN_STACK_ROWS` support — pure
arithmetic on row lengths and the memory cap, so CI checks it without
trusting wall clocks.
"""

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import BodyMotionFading, MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.data.bits import random_bits
from repro.data.fdm import FdmFskModem
from repro.engine import (
    AmbientCache,
    AxisRef,
    PayloadSelector,
    Scenario,
    SweepRunner,
    SweepSpec,
    plan_sweep,
)
from repro.engine.batch_backend import BATCH_MEMORY_ENV_VAR, partition_points
from repro.engine.planner import MIN_STACK_ROWS
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig09_mrc as fig09
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig12_pesq_cooperative as fig12
from repro.experiments import fig13_pesq_stereo as fig13
from repro.utils.env import fast_numerics
from repro.utils.rand import as_generator

from point_oracle import oracle_values

SEED = 2017


@pytest.fixture(autouse=True)
def default_memory_cap(monkeypatch):
    """Decide every width under the default ``REPRO_BATCH_MAX_MB`` cap."""
    monkeypatch.delenv(BATCH_MEMORY_ENV_VAR, raising=False)


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def _prepared(scenario):
    """(data, points) the way the runner derives them before planning."""
    gen = as_generator(SEED)
    data = scenario.prepare(gen) if scenario.prepare is not None else {}
    return data, scenario.sweep.points()


def _plan(scenario, cache=None):
    data, points = _prepared(scenario)
    return plan_sweep(scenario, data, points, AmbientCache() if cache is None else cache)


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


def _two_row_scenario(fading=None):
    """One grid, two payload lengths: 0.02 s rows (9,600 MPX samples)
    stack, 0.5 s rows (240,000 samples, 5 to a pass) run at width 1."""
    short = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
    long_ = tone(1000.0, 0.5, AUDIO_RATE_HZ, amplitude=0.9)
    return Scenario(
        name="rows",
        sweep=SweepSpec.grid(row=("short", "long"), distance_ft=(2, 4)),
        prepare=lambda gen: {"short": short, "long": long_},
        base_chain={"program": "silence", "stereo_decode": False, "fading": fading},
        chain_axes=("distance_ft",),
        payload=PayloadSelector("row", {"short": "short", "long": "long"}),
        measure=_mean_abs,
    )


class TestFeatureExtraction:
    """What the plan reads off each of the executor's partitions."""

    def test_partitions_match_batched_executor_grouping(self):
        # One front-end group, two receiver partitions (phone mono + car
        # stereo) — the executor's own partitions, decided one by one.
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
        plan = plan_sweep(scenario, data, points, AmbientCache())
        assert [d.point_indices for d in plan.decisions] == [
            tuple(points[pos].index for pos in part.positions)
            for part in partition_points(scenario, data, points, AmbientCache())
        ]
        # Exact row length: payload upsampled audio->MPX rate (x10).
        assert [d.partition for d in plan.decisions] == [
            f"smartphone/mono@{payload.size * 10}",
            f"car/stereo@{payload.size * 10}",
        ]
        covered = sorted(i for d in plan.decisions for i in d.point_indices)
        assert covered == list(range(len(points)))

    def test_planning_never_synthesizes(self):
        scenario = _tone_scenario()
        cache = AmbientCache()
        _plan(scenario, cache)
        assert len(cache) == 0
        assert cache.stats["misses"] == 0

    def test_measure_driven_grid_is_one_serial_partition(self):
        scenario = Scenario(
            name="md",
            sweep=SweepSpec.grid(a=(1, 2, 3)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        plan = plan_sweep(scenario, {}, scenario.sweep.points(), None)
        assert len(plan.decisions) == 1
        decision = plan.decisions[0]
        assert decision.partition == "measure-driven"
        assert (decision.backend, decision.chunk_rows) == ("serial", 1)
        assert plan.label == "auto[serial:3]"


class TestWidthRule:
    # 166,666 MPX samples is the longest row of which the default 64 MB
    # cap fits MIN_STACK_ROWS to a pass: 16,666 audio samples.
    LONGEST_STACKED_S = 16_666 / AUDIO_RATE_HZ

    def test_threshold_sits_at_min_stack_rows(self):
        stacked = _plan(_tone_scenario(self.LONGEST_STACKED_S, n_points=10))
        assert [(d.backend, d.chunk_rows) for d in stacked.decisions] == [
            ("batched", MIN_STACK_ROWS)
        ]
        one_more = (16_666 + 1) / AUDIO_RATE_HZ
        serial = _plan(_tone_scenario(one_more, n_points=10))
        assert [(d.backend, d.chunk_rows) for d in serial.decisions] == [("serial", 1)]

    def test_memory_cap_moves_the_threshold(self, monkeypatch):
        scenario = _tone_scenario(0.05, n_points=4)  # 24,000-sample rows
        assert _plan(scenario).decisions[0].backend == "batched"
        monkeypatch.setenv(BATCH_MEMORY_ENV_VAR, "5")  # 4 rows to a pass
        assert _plan(scenario).decisions[0].backend == "serial"

    def test_stereo_stacks_at_any_width(self):
        # 0.5 s rows fit 5 to a pass: too few for mono, enough for stereo.
        mono = _plan(_tone_scenario(0.5, n_points=6))
        assert [(d.backend, d.chunk_rows) for d in mono.decisions] == [("serial", 1)]
        stereo = _plan(_tone_scenario(0.5, n_points=6, stereo_decode=True))
        assert [(d.backend, d.chunk_rows) for d in stereo.decisions] == [("batched", 5)]

    def test_batched_excluded_when_cache_off(self):
        # Without the shared cached front end every point synthesizes its
        # own, so each is a partition of one: nothing to stack.
        scenario = _tone_scenario()
        scenario.cache_ambient = False
        data, points = _prepared(scenario)
        plan = plan_sweep(scenario, data, points, None)
        assert [len(d.point_indices) for d in plan.decisions] == [1] * len(points)
        assert {d.backend for d in plan.decisions} == {"serial"}


class TestPaperGridDecisions:
    """The decisions ``auto`` gives the paper's own grids."""

    def test_fig09_runs_at_width_1(self):
        plan = _plan(fig09.build_scenario(FdmFskModem(symbol_rate=200)))
        assert len(plan.decisions) == 4
        assert {d.backend for d in plan.decisions} == {"serial"}

    def test_fig10_stacks_stereo_only(self):
        plan = _plan(fig10.build_scenario("1.6k", FdmFskModem(symbol_rate=200)))
        assert {d.partition.split("@")[0]: d.backend for d in plan.decisions} == {
            "smartphone/mono": "serial",
            "smartphone/stereo": "batched",
        }

    def test_fig13_stacks(self):
        plan = _plan(fig13.build_scenario())
        assert [d.backend for d in plan.decisions] == ["batched"]

    def test_fig12_is_measure_driven_and_serial(self):
        plan = _plan(fig12.build_scenario())
        assert [(d.partition, d.backend) for d in plan.decisions] == [
            ("measure-driven", "serial")
        ]


class TestDecisionGates:
    """The crossover gates CI runs without trusting wall clocks."""

    def test_never_batched_on_fig08_long_row_grid(self):
        # The bench Fig. 8 grid: 100 bps payload -> 0.4 s waveform ->
        # 192k-sample rows, 6 to a pass. Stacked it saves ~3% of the time
        # for ~30% more memory, so the rule runs it at width 1.
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
        plan = _plan(scenario)
        assert plan.decisions, "a decision per partition is required"
        assert all(d.backend != "batched" for d in plan.decisions)

    def test_batched_on_fading_short_row_grid(self):
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
        plan = plan_sweep(scenario, data, points, AmbientCache())
        assert all(d.backend == "batched" for d in plan.decisions)
        covered = sorted(i for d in plan.decisions for i in d.point_indices)
        assert covered == list(range(len(points)))


class TestPlanExecution:
    def test_auto_records_decision_per_partition(self):
        scenario = _tone_scenario(duration_s=0.05, n_points=4)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.plan is not None and len(result.plan) == 1
        decision = result.plan[0]
        assert decision.backend == "batched"  # 24,000-sample rows
        assert decision.point_indices == (0, 1, 2, 3)
        assert decision.chunk_rows == 4
        assert decision.partition == "smartphone/mono@24000"
        assert result.backend == "auto[batched:4]"

    def test_auto_with_cache_off_runs_serial(self):
        scenario = _tone_scenario(n_points=3)
        scenario.cache_ambient = False
        result = SweepRunner(scenario, rng=SEED, backend="auto").run()
        # One partition of one per point, each at width 1.
        assert [d.backend for d in result.plan] == ["serial"] * 3
        serial = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.values == serial.values

    def test_auto_never_runs_a_pool(self):
        result = SweepRunner(
            _two_row_scenario(MotionFadingSpec("running")), rng=SEED,
            cache=AmbientCache(), backend="auto", max_workers=4,
        ).run()
        assert result.n_workers == 1
        assert {d.backend for d in result.plan} == {"batched", "serial"}

    @pytest.mark.skipif(
        fast_numerics(),
        reason="bit-identity with the oracle is an exact-numerics contract",
    )
    def test_live_fading_model_never_priced_on_pools(self):
        # A shared stateful fading model consumes its stream in grid
        # order across points. The executor draws its envelopes up front
        # in grid order, so serial and batched partitions may split the
        # grid freely within its one call — and auto never hands the
        # grid to a pool, whose workers would each own a copy.
        live = _two_row_scenario(BodyMotionFading("running", rng=7))
        plan = _plan(live)
        assert {d.backend for d in plan.decisions} == {"batched", "serial"}
        # The split run equals the point-by-point oracle (a fresh model
        # for each, so both start from the same stream state).
        result = SweepRunner(
            _two_row_scenario(BodyMotionFading("running", rng=7)), rng=SEED,
            cache=AmbientCache(), backend="auto", max_workers=4,
        ).run()
        assert result.n_workers == 1
        assert result.values == oracle_values(
            _two_row_scenario(BodyMotionFading("running", rng=7)), SEED
        )

    def test_single_point_grid_short_circuits_without_plan(self):
        scenario = _tone_scenario(n_points=1)
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="auto"
        ).run()
        assert result.backend == "serial"
        assert result.plan is None
