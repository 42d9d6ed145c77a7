"""DSP plan cache: the byte budget that bounds FIR kernel spectra."""

import numpy as np
import pytest

from repro.dsp import plan_cache
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.dsp.plan_cache import (
    PLAN_CACHE_ENV_VAR,
    cached_plan,
    clear_plan_cache,
    plan_cache_stats,
)

FS = 48_000.0


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestByteBudget:
    """Kernel spectra are large, so the cache is also bounded by bytes."""

    @pytest.fixture
    def budget(self, monkeypatch):
        def set_budget(n_bytes):
            monkeypatch.setattr(plan_cache, "PLAN_CACHE_MAX_BYTES", n_bytes)

        return set_budget

    def test_evicts_oldest_first_past_the_budget(self, budget):
        budget(3 * 800)
        for name in ("a", "b", "c"):
            cached_plan((name,), lambda: np.zeros(100))
        cached_plan(("a",), lambda: np.zeros(100))  # refresh a
        cached_plan(("d",), lambda: np.zeros(100))  # evicts b, the oldest
        stats = plan_cache_stats()
        assert stats["items"] == 3 and stats["bytes"] == 3 * 800
        assert list(plan_cache._cache) == [("c",), ("a",), ("d",)]
        cached_plan(("e",), lambda: np.zeros(200))  # needs two slots: c, a go
        assert list(plan_cache._cache) == [("d",), ("e",)]
        assert plan_cache_stats()["bytes"] == 3 * 800

    def test_oversize_plan_is_built_not_cached_and_read_only(self, budget):
        budget(800)
        calls = []
        for _ in range(2):
            plan = cached_plan(("big",), lambda: calls.append(1) or np.zeros(101))
            assert not plan.flags.writeable
        assert len(calls) == 2
        stats = plan_cache_stats()
        assert stats["items"] == 0 and stats["bytes"] == 0

    def test_oversize_plan_leaves_cached_plans_alone(self, budget):
        budget(800)
        small = cached_plan(("small",), lambda: np.zeros(10))
        cached_plan(("big",), lambda: np.zeros(101))
        assert cached_plan(("small",), lambda: np.ones(10)) is small

    def test_kernel_spectrum_cached_per_fft_length(self):
        taps = design_lowpass_fir(5_000.0, FS, 129)
        x = np.random.default_rng(0).standard_normal(4000)
        filter_signal(taps, x)
        misses = plan_cache_stats()["misses"]
        filter_signal(taps, x)
        filter_signal(taps, x[np.newaxis, :].repeat(3, axis=0))
        assert plan_cache_stats()["misses"] == misses  # rows share the spectrum
        filter_signal(taps, x[:3000])
        filter_signal(taps, x.astype(complex))
        filter_signal(taps, x.astype(np.float32))
        assert plan_cache_stats()["misses"] == misses + 3
        spectra = [k for k in plan_cache._cache if k[0] == "fir_spectrum"]
        assert len(spectra) == 4
        assert plan_cache_stats()["bytes"] == sum(p.nbytes for p in plan_cache._cache.values())

    def test_spectra_respect_the_budget(self, budget):
        taps = design_lowpass_fir(5_000.0, FS, 129)
        x = np.random.default_rng(1).standard_normal(8000)
        filter_signal(taps, x)
        spectrum_bytes = max(p.nbytes for p in plan_cache._cache.values())
        budget(spectrum_bytes + taps.nbytes)
        filter_signal(taps, x[:7000])  # a second spectrum evicts the first
        stats = plan_cache_stats()
        assert stats["bytes"] <= spectrum_bytes + taps.nbytes
        assert sum(k[0] == "fir_spectrum" for k in plan_cache._cache) == 1

    def test_zero_capacity_disables_spectra(self, monkeypatch):
        monkeypatch.setenv(PLAN_CACHE_ENV_VAR, "0")
        taps = design_lowpass_fir(5_000.0, FS, 129)
        x = np.random.default_rng(2).standard_normal(2000)
        first = filter_signal(taps, x)
        misses = plan_cache_stats()["misses"]
        second = filter_signal(taps, x)
        assert plan_cache_stats()["misses"] > misses  # rebuilt every call
        assert plan_cache_stats()["items"] == 0 and plan_cache_stats()["bytes"] == 0
        assert np.array_equal(first, second)
