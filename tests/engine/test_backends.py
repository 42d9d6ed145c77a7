"""Golden-seed equivalence of the sweep backends with the point oracle.

The engine's contract: the per-point streams are pre-derived from the
sweep generator, so ``serial``, ``thread``, ``process`` and ``batched``
execution — and ``auto``, which may split one grid across several row
widths and pools — return the values of the former point-by-point
executor (:mod:`point_oracle`) bit for bit: on a data-BER scenario
(Fig. 8), an audio-metric scenario (Fig. 7) and the stereo-decoding
scenarios (Fig. 10/13, whose pilot PLL the stacked executor runs
through the multi-waveform ``track_batch``) alike.
"""

import sys

import numpy as np
import pytest

from repro.audio.tones import tone
from repro.channel.fading import MotionFadingSpec
from repro.constants import AUDIO_RATE_HZ
from repro.data.fdm import FdmFskModem
from repro.engine import (
    AmbientCache,
    AxisRef,
    Scenario,
    SweepRunner,
    SweepSpec,
    default_backend,
)
from repro.errors import ConfigurationError
from repro.experiments import fig07_snr_distance as fig07
from repro.experiments import fig08_ber_overlay as fig08
from repro.experiments import fig10_stereo_ber as fig10
from repro.experiments import fig13_pesq_stereo as fig13
from repro.utils.env import fast_numerics

from point_oracle import oracle_result, oracle_values

exact_numerics_only = pytest.mark.skipif(
    fast_numerics(),
    reason="bit-identity is an exact-numerics contract; REPRO_NUMERICS=fast "
    "is gated by the tolerance golden tier",
)


SEED = 2017
BACKENDS = ("serial", "thread", "process", "batched", "auto")

FIG08_KWARGS = dict(
    rate="1.6kbps",
    powers_dbm=(-55.0, -60.0),
    distances_ft=(8, 16),
    n_bits=48,
    rng=SEED,
)
FIG07_KWARGS = dict(
    powers_dbm=(-30.0, -60.0),
    distances_ft=(2, 8),
    duration_s=0.15,
    rng=SEED,
)
FIG10_KWARGS = dict(distances_ft=(2, 4), n_bits=48, rng=SEED)
FIG13_KWARGS = dict(
    powers_dbm=(-20.0, -40.0),
    distances_ft=(1, 4),
    duration_s=0.2,
    rng=SEED,
)


@exact_numerics_only
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def fig08_by_backend(self):
        return {
            backend: self._run_with_backend(fig08.run, FIG08_KWARGS, backend)
            for backend in BACKENDS + ("oracle",)
        }

    @pytest.fixture(scope="class")
    def fig07_by_backend(self):
        return {
            backend: self._run_with_backend(fig07.run, FIG07_KWARGS, backend)
            for backend in BACKENDS + ("oracle",)
        }

    @staticmethod
    def _run_with_backend(run, kwargs, backend):
        """A figure's ``run()`` on one backend, or through the point
        oracle for ``backend="oracle"``."""
        import os

        if backend == "oracle":
            module = sys.modules[run.__module__]
            engine_run = module.run_scenario
            module.run_scenario = oracle_result
            try:
                return run(**kwargs)
            finally:
                module.run_scenario = engine_run
        before = os.environ.get("REPRO_SWEEP_BACKEND")
        os.environ["REPRO_SWEEP_BACKEND"] = backend
        try:
            return run(**kwargs)
        finally:
            if before is None:
                os.environ.pop("REPRO_SWEEP_BACKEND", None)
            else:
                os.environ["REPRO_SWEEP_BACKEND"] = before

    def test_data_ber_scenario_identical_across_backends(self, fig08_by_backend):
        oracle = fig08_by_backend["oracle"]
        # The grid sits on the BER cliff, so the values are non-trivial —
        # a shifted noise stream would visibly change them.
        assert any(v > 0 for key in ("P-55", "P-60") for v in oracle[key])
        for backend in BACKENDS:
            assert fig08_by_backend[backend] == oracle, backend

    def test_audio_metric_scenario_identical_across_backends(self, fig07_by_backend):
        oracle = fig07_by_backend["oracle"]
        for backend in BACKENDS:
            assert fig07_by_backend[backend] == oracle, backend

    def test_stereo_ber_scenario_identical_across_backends(self):
        # Fig. 10 mixes overlay (mono decode) and stereo (pilot PLL)
        # points in one grid; every backend must match the oracle.
        oracle = self._run_with_backend(fig10.run, FIG10_KWARGS, "oracle")
        for backend in BACKENDS:
            assert self._run_with_backend(fig10.run, FIG10_KWARGS, backend) == oracle, backend

    def test_stereo_pesq_scenario_identical_across_backends(self):
        # Fig. 13 stereo-decodes at every point, with the pilot gate
        # flipping between lock and mono fallback across the power axis.
        oracle = self._run_with_backend(fig13.run, FIG13_KWARGS, "oracle")
        for backend in BACKENDS:
            assert self._run_with_backend(fig13.run, FIG13_KWARGS, backend) == oracle, backend

    def test_batched_handles_mixed_receivers_in_one_front_end_group(self):
        # A receiver-kind axis shares one front end across phone and car
        # points; the executor must partition the group — the mono phone
        # half through the mono decode, the car half (whose radio always
        # runs its stereo decoder) through the multi-waveform-PLL stereo
        # decode — and match the oracle at every width.
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
        oracle = oracle_values(scenario, SEED)
        for backend in ("serial", "batched"):
            result = SweepRunner(
                scenario, rng=SEED, cache=AmbientCache(), backend=backend
            ).run()
            assert result.values == oracle, backend
            assert result.backend == backend

    def test_fig10_batched_takes_zero_stereo_fallbacks(self):
        # The acceptance bar for the multi-waveform pilot PLL: the exact
        # Fig. 10 grid, stereo-decoding half included, runs stacked and
        # matches the oracle bit for bit.
        scenario = fig10.build_scenario(
            "1.6k", FdmFskModem(symbol_rate=200), distances_ft=(2, 4), n_bits=48
        )
        batched = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert batched.values == oracle_values(scenario, SEED)

    def test_fig13_batched_takes_zero_stereo_fallbacks(self):
        scenario = fig13.build_scenario(
            "stereo_station",
            powers_dbm=(-20.0, -40.0),
            distances_ft=(1, 4),
            duration_s=0.2,
        )
        batched = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert batched.values == oracle_values(scenario, SEED)
        # The grid must actually exercise the stereo decoder.
        assert any(locked for _, locked in batched.values)

    def test_batched_backend_reports_vectorized_points(self):
        payload = tone(1000.0, 0.1, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="label",
            sweep=SweepSpec.grid(power_dbm=(-20.0, -40.0), distance_ft=(2, 8)),
            prepare=lambda gen: {"payload": payload},
            base_chain={"program": "silence", "stereo_decode": False},
            chain_axes=("power_dbm", "distance_ft"),
            payload="payload",
            measure=_mean_abs,
        )
        result = SweepRunner(
            scenario, rng=SEED, cache=AmbientCache(), backend="batched"
        ).run()
        assert result.backend == "batched"
        assert result.n_workers == 1
        assert result.values == oracle_values(scenario, SEED)

    def test_last_bit_pow_budgets_match_the_oracle(self):
        # Budgets whose linear SNR differs in the last bit between numpy's
        # vectorized power and the scalar pow of the point-by-point link:
        # -40 dBm / 27 ft unfaded and -30 dBm / 12 ft faded used to break
        # batched-vs-serial identity.
        payload = tone(1000.0, 0.05, AUDIO_RATE_HZ, amplitude=0.9)
        for fading, power, distance in (
            (None, -40.0, 27), (MotionFadingSpec("running"), -30.0, 12)
        ):
            base_chain = {"program": "silence", "stereo_decode": False}
            if fading is not None:
                base_chain["fading"] = fading
            scenario = Scenario(
                name="pow",
                sweep=SweepSpec.grid(power_dbm=(power, -20.0), distance_ft=(distance, 2)),
                prepare=lambda gen: {"payload": payload},
                base_chain=base_chain,
                chain_axes=("power_dbm", "distance_ft"),
                payload="payload",
                measure=_mean_abs,
            )
            oracle = oracle_values(scenario, SEED)
            for backend in ("serial", "batched"):
                result = SweepRunner(
                    scenario, rng=SEED, cache=AmbientCache(), backend=backend
                ).run()
                assert result.values == oracle, (backend, power, distance)


def _mean_abs(run):
    return float(np.mean(np.abs(run.received.mono)))


def _closure_measure_factory():
    secret = object()
    return lambda run: secret


class TestBackendConfiguration:
    def test_env_backend_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "gpu")
        with pytest.raises(ConfigurationError):
            default_backend()

    def test_env_backend_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
        assert default_backend() is None

    def test_constructor_rejects_unknown_backend(self):
        scenario = Scenario(
            name="x", sweep=SweepSpec.grid(a=(1,)), measure=_mean_abs
        )
        with pytest.raises(ConfigurationError):
            SweepRunner(scenario, backend="fiber")

    def test_process_backend_rejects_unpicklable_scenario(self):
        scenario = Scenario(
            name="closures",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=_closure_measure_factory(),
            cache_ambient=False,
        )
        with pytest.raises(ConfigurationError, match="declarative"):
            SweepRunner(scenario, backend="process", max_workers=2).run()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_reject_a_live_fading_model(self, backend):
        # One stateful model shared by every point is one stream consumed
        # in grid order; pool workers would each draw from their own
        # copy (process) or race on it (thread).
        from repro.channel.fading import BodyMotionFading

        payload = tone(1000.0, 0.02, AUDIO_RATE_HZ, amplitude=0.9)
        scenario = Scenario(
            name="live",
            sweep=SweepSpec.grid(distance_ft=(2, 4, 8)),
            prepare=lambda gen: {"payload": payload},
            base_chain={
                "program": "silence",
                "stereo_decode": False,
                "fading": BodyMotionFading("running", rng=7),
            },
            chain_axes=("distance_ft",),
            payload="payload",
            measure=_mean_abs,
        )
        with pytest.raises(ConfigurationError, match="MotionFadingSpec"):
            SweepRunner(scenario, rng=SEED, backend=backend, max_workers=2).run()

    @pytest.mark.parametrize("backend", ["serial", "batched", "auto"])
    def test_payload_without_chain_rejected(self, backend):
        scenario = Scenario(
            name="no-chain",
            sweep=SweepSpec.grid(a=(1, 2)),
            prepare=lambda gen: {"payload": np.zeros(8)},
            payload="payload",
            measure=_mean_abs,
            cache_ambient=False,
        )
        with pytest.raises(ConfigurationError, match="payload but no chain"):
            SweepRunner(scenario, rng=SEED, backend=backend).run()

    def test_single_point_grid_reports_serial_execution(self):
        scenario = Scenario(
            name="one",
            sweep=SweepSpec.grid(a=(1,)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        result = SweepRunner(scenario, rng=SEED, backend="batched").run()
        assert result.backend == "serial"
        assert result.values == [1]

    def test_serial_label_recorded(self):
        scenario = Scenario(
            name="label",
            sweep=SweepSpec.grid(a=(1, 2)),
            measure=lambda run: run.point["a"],
            cache_ambient=False,
        )
        result = SweepRunner(scenario, rng=SEED, backend="serial").run()
        assert result.backend == "serial"
        assert result.values == [1, 2]
