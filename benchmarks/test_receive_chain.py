"""Receive chain: today's layers vs the expressions they replaced.

One measurement, written to ``benchmarks/BENCH_engine.json`` under
``receive_chain``: the three exact-chain layers of one serial Fig. 9
grid point (1600 bits at -40 dBm, 8 ft; a 480k-sample MPX row), each
timed against its previous expression from
``tests/receiver/receive_oracle.py``:

- ``complex_awgn`` on the front end's complex envelope, against
  ``iq.astype(complex) + scale * (a + 1j * b)``;
- ``fm_demodulate`` on the noisy envelope, against ``np.where`` +
  ``np.angle`` + ``concatenate``;
- ``filter_signal`` with the 15 kHz mono low-pass on the 1-D MPX row,
  against ``fftconvolve`` over a delay-padded copy. The kernel spectrum
  comes from the DSP plan cache, warmed by one untimed call, as it is
  at every grid point after a sweep's first.

Each layer runs 5 repeats per path, alternating which goes first, and is
recorded as median/IQR. Outputs must be byte-identical (hard assert).
Only the ``filter_signal`` ratio is gated, at a conservative 1.25x.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.constants import FM_MAX_DEVIATION_HZ, MPX_RATE_HZ
from repro.channel.noise import complex_awgn
from repro.data.fdm import FdmFskModem
from repro.dsp.filters import design_lowpass_fir, filter_signal
from repro.experiments import fig09_mrc as fig09
from repro.experiments.common import ChainState, ExperimentChain
from repro.fm.demodulator import fm_demodulate
from repro.utils.rand import as_generator, child_generator

SEED = 2017
REPEATS = 5
MIN_FILTER_SPEEDUP = 1.25
ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "receiver" / "receive_oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("receive_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fig09_point():
    """The clean envelope, RF SNR and receiver settings of one Fig. 9 point."""
    gen = as_generator(SEED)
    payload = fig09.prepare_payload(gen, FdmFskModem(symbol_rate=200), 1600)["waveform"]
    chain = ExperimentChain(
        program="rock",
        power_dbm=-40.0,
        distance_ft=8,
        stereo_decode=False,
        back_amplitude=fig09.DEFAULT_BACK_AMPLITUDE,
    )
    state = chain.front_end().apply(
        ChainState(payload_audio=payload), child_generator(gen, "station")
    )
    return state.iq, chain.rf_snr_db()


def _timed(ours, reference):
    """Per-repeat wall times of both paths (alternating order) and outputs."""
    times = {"ours": [], "reference": []}
    outputs = {}
    for repeat in range(REPEATS):
        order = ("ours", "reference") if repeat % 2 == 0 else ("reference", "ours")
        for name in order:
            call = ours if name == "ours" else reference
            started = time.perf_counter()
            outputs[name] = call()
            times[name].append(time.perf_counter() - started)
    return {k: np.array(v) for k, v in times.items()}, outputs


def _summary(times):
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": round(float(median), 5), "iqr_s": round(float(q3 - q1), 5)}


@pytest.mark.engine_bench
def test_receive_chain_layers(bench_artifact):
    oracle = _load_oracle()
    iq, snr_db = _fig09_point()
    noisy = complex_awgn(iq, snr_db, SEED)
    mpx = fm_demodulate(noisy)
    taps = design_lowpass_fir(15e3, MPX_RATE_HZ, 513)
    filter_signal(taps, mpx)  # warm the kernel spectrum, as a sweep does

    layers = {
        "complex_awgn": (
            lambda: complex_awgn(iq, snr_db, SEED),
            lambda: oracle.complex_awgn(iq, snr_db, SEED),
        ),
        "fm_demodulate": (
            lambda: fm_demodulate(noisy),
            lambda: oracle.fm_demodulate(noisy, MPX_RATE_HZ, FM_MAX_DEVIATION_HZ),
        ),
        "filter_signal": (
            lambda: filter_signal(taps, mpx),
            lambda: oracle.filter_signal(taps, mpx),
        ),
    }
    record = {
        "benchmark": "fig09_point_receive_chain_layers",
        "mpx_samples": int(mpx.size),
        "repeats": REPEATS,
    }
    for name, (ours, reference) in layers.items():
        times, outputs = _timed(ours, reference)
        assert outputs["ours"].dtype == outputs["reference"].dtype, name
        assert outputs["ours"].tobytes() == outputs["reference"].tobytes(), name
        record[name] = {
            "previous_expression": _summary(times["reference"]),
            "current": _summary(times["ours"]),
            "speedup": round(float(np.median(times["reference"]) / np.median(times["ours"])), 2),
        }
    bench_artifact("receive_chain", record)
    print(f"\n=== receive chain ===\n{json.dumps(record, indent=2)}")

    assert mpx.size == 480_000
    assert record["filter_signal"]["speedup"] >= MIN_FILTER_SPEEDUP, record
