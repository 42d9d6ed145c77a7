"""Fig. 10 — overlay versus stereo backscatter BER at -30 dBm.

Data in the stereo (L-R) stream of a news station sees almost no program
interference (news stations leave the stereo stream nearly empty, Fig. 5),
so stereo backscatter beats overlay at both 1.6 and 3.2 kbps — at the cost
of needing enough power for the receiver to detect the 19 kHz pilot.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.backscatter.device import BackscatterMode
from repro.data.bits import random_bits
from repro.data.fdm import FdmFskModem
from repro.engine import AxisRef, Scenario, SweepSpec, run_scenario
from repro.experiments.fig08_ber_overlay import score_ber
from repro.utils.rand import RngLike, as_generator, child_generator

DEFAULT_DISTANCES_FT = (1, 2, 3, 4)

_MODE_CHAINS = {
    "overlay": {"mode": BackscatterMode.OVERLAY, "stereo_decode": False},
    "stereo": {"mode": BackscatterMode.STEREO, "stereo_decode": True},
}


def build_scenario(
    rate_label: str,
    modem: FdmFskModem,
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    power_dbm: float = -30.0,
    program: str = "news",
    n_bits: int = 1600,
) -> Scenario:
    """The declarative sweep for one Fig. 10 rate panel.

    Module-level so tests can execute the exact grid ``run()`` uses under
    any backend (e.g. asserting the batched backend's stereo points match
    the point-by-point oracle).
    """

    def prepare(gen):
        bits = random_bits(n_bits, child_generator(gen, "payload", rate_label))
        return {"bits": bits, "waveform": modem.modulate(bits)}

    return Scenario(
        name="fig10",
        sweep=SweepSpec.grid(mode=("overlay", "stereo"), distance_ft=tuple(distances_ft)),
        prepare=prepare,
        base_chain={
            "program": program,
            "station_stereo": True,
            "power_dbm": power_dbm,
        },
        chain_axes=("distance_ft",),
        chain_value_params={"mode": _MODE_CHAINS},
        rng_keys=(AxisRef("mode"), rate_label, AxisRef("distance_ft")),
        payload="waveform",
        measure=score_ber,
        measure_params={"modem": modem},
    )


def run(
    distances_ft: Sequence[float] = DEFAULT_DISTANCES_FT,
    power_dbm: float = -30.0,
    program: str = "news",
    n_bits: int = 1600,
    rng: RngLike = None,
) -> Dict[str, object]:
    """BER vs distance for overlay and stereo placements at two rates.

    Returns:
        dict with ``distances_ft`` and keys ``overlay_1.6k``,
        ``stereo_1.6k``, ``overlay_3.2k``, ``stereo_3.2k``.
    """
    gen = as_generator(rng)
    results: Dict[str, object] = {"distances_ft": [float(d) for d in distances_ft]}
    # One sub-sweep per rate, sharing the sweep generator: each rate's
    # payload and per-point streams are drawn deterministically in rate
    # order. (The runner's ambient-master draw at the end of the first
    # sub-sweep shifts the 3.2k streams relative to the pre-engine loop
    # — deterministically, but not draw-for-draw.)
    for rate_label, symbol_rate in (("1.6k", 200), ("3.2k", 400)):
        modem = FdmFskModem(symbol_rate=symbol_rate)
        scenario = build_scenario(
            rate_label,
            modem,
            distances_ft=distances_ft,
            power_dbm=power_dbm,
            program=program,
            n_bits=n_bits,
        )
        result = run_scenario(scenario, rng=gen)
        for mode_label in ("overlay", "stereo"):
            results[f"{mode_label}_{rate_label}"] = result.series(
                along="distance_ft", mode=mode_label
            )
    return results
