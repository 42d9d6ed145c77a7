"""Tone detection: block projection vs the per-symbol loop it replaced.

One measurement, written to ``benchmarks/BENCH_engine.json`` under
``tone_detection``: the Fig. 9 MRC scoring step — 6 distances x MRC
factors 1-4, so 24 FDM-4FSK demodulations of 1600 bits — timed with the
per-symbol reference loop (one ``goertzel_power_many`` call per symbol
and group, ``tests/data/detection_oracle.py``) and with
``FdmFskModem.demodulate`` (one ``goertzel_power_blocks`` projection per
reception). The receptions come from one serial sweep computed before
timing, so only detection is timed. Both paths must decide identical
bits (hard assert); the speedup is gated at a conservative 5x.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.fdm import FdmFskModem
from repro.data.mrc import mrc_combine
from repro.engine import AmbientCache, SweepRunner
from repro.experiments import fig09_mrc as fig09

SEED = 2017
REPEATS = 5
MIN_SPEEDUP = 5.0
ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "data" / "detection_oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("detection_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _combined_receptions(modem):
    """Every (distance, factor) MRC-combined reception of one Fig. 9 sweep."""
    scenario = fig09.build_scenario(modem)
    result = SweepRunner(scenario, rng=SEED, cache=AmbientCache(), backend="serial").run()
    combined = []
    for distance in fig09.DEFAULT_DISTANCES_FT:
        receptions = result.series(along="rep", distance_ft=distance)
        for factor in fig09.DEFAULT_MRC_FACTORS:
            combined.append(mrc_combine(receptions[:factor]))
    return result.data["bits"], combined


def _timed(detect, combined, n_bits):
    """Per-repeat wall times of detecting every reception, and the bits."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        bits = [detect(audio, n_bits) for audio in combined]
        times.append(time.perf_counter() - started)
    return np.array(times), bits


def _summary(times):
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": round(float(median), 5), "iqr_s": round(float(q3 - q1), 5)}


@pytest.mark.engine_bench
def test_tone_detection_speedup(bench_artifact):
    oracle = _load_oracle()
    modem = FdmFskModem(symbol_rate=200)
    bits, combined = _combined_receptions(modem)

    loop_times, loop_bits = _timed(
        lambda audio, n: oracle.fdm_demodulate(modem, audio, n), combined, bits.size
    )
    block_times, block_bits = _timed(modem.demodulate, combined, bits.size)

    speedup = float(np.median(loop_times) / np.median(block_times))
    record = {
        "benchmark": "fig09_mrc_scoring_tone_detection",
        "demodulations": len(combined),
        "n_bits": int(bits.size),
        "repeats": REPEATS,
        "per_symbol_loop": _summary(loop_times),
        "block_projection": _summary(block_times),
        "speedup": round(speedup, 2),
    }
    bench_artifact("tone_detection", record)
    print(f"\n=== tone detection ===\n{json.dumps(record, indent=2)}")

    for ours, reference in zip(block_bits, loop_bits):
        assert np.array_equal(ours, reference)
    assert speedup >= MIN_SPEEDUP, record
