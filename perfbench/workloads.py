"""The benchmark's three workloads, their quality probes and output checks.

Each workload is a closed loop with one client: it submits one job,
waits for its result, then submits the next. A *round* is the unit the
traced run alternates on: one whole-grid sweep for the sweep workloads,
a block of four service jobs for ``service_fading``.

- ``stereo_pesq`` — the Fig. 13 ``stereo_station`` grid (4 powers from
  -20 to -60 dBm x 2 distances, 1 s speech) through ``SweepRunner`` with
  the default backend (``auto``, which plans it batched). Every pass
  reuses the run seed, so the in-process ambient cache is warm.
- ``mono_mrc`` — the Fig. 9 grid (6 distances x 4 repetitions, 1600
  bits; long rows, so ``auto`` plans it serial), scored per MRC factor
  with ``FdmFskModem.demodulate`` and ``mrc_combine``.
- ``service_fading`` — short-row Fig. 9 jobs with running-body fading
  through one journaled ``SweepService(n_workers=2)`` with a run-scoped
  shared cache directory. One job in four uses a fresh seed (parent
  synthesizes and writes the store); the other three repeat an earlier
  seed (workers read warm composites from the store).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

PROBE_SEED = 20170327
"""Seed of the quality probes. Fixed, so a probe reads the same on every
run of one commit and moves only when the numerics change."""

MOS_RANGE = (1.0, 4.5)
STEREO_POWERS_DBM = (-20.0, -40.0, -50.0, -60.0)
STEREO_DISTANCES_FT = (4, 16)
MRC_FACTORS = (1, 2, 3, 4)
SERVICE_DISTANCES_FT = (2, 8, 16)
SERVICE_N_BITS = 160
SERVICE_FRESH_EVERY = 4
"""One job in this many uses a fresh seed; the rest repeat an earlier one."""


@dataclass
class Job:
    """One completed job of the closed loop."""

    latency_s: float
    points: int
    output: object
    seed: int
    cache_stats: Optional[dict]
    report: object = None
    submitted_at: float = 0.0


@dataclass
class Quality:
    pesq_mean: float
    stereo_lock_ratio: float
    ber_mean: float
    failures: List[str] = field(default_factory=list)


# -- the scenarios -----------------------------------------------------------


def stereo_scenario():
    from repro.experiments import fig13_pesq_stereo

    return fig13_pesq_stereo.build_scenario(
        "stereo_station",
        powers_dbm=STEREO_POWERS_DBM,
        distances_ft=STEREO_DISTANCES_FT,
        duration_s=1.0,
    )


def mrc_scenario(**kwargs):
    from repro.data.fdm import FdmFskModem
    from repro.experiments import fig09_mrc

    modem = FdmFskModem(symbol_rate=200)
    return modem, fig09_mrc.build_scenario(modem, max_factor=max(MRC_FACTORS), **kwargs)


def service_scenario():
    from repro.channel.fading import MotionFadingSpec

    modem, scenario = mrc_scenario(distances_ft=SERVICE_DISTANCES_FT, n_bits=SERVICE_N_BITS)
    scenario.base_chain["fading"] = MotionFadingSpec("running")
    return scenario


# -- scoring and checks ------------------------------------------------------


def score_mrc(modem, result) -> np.ndarray:
    """BER per (distance, MRC factor) of one Fig. 9 sweep result."""
    from repro.data.ber import bit_error_rate
    from repro.data.mrc import mrc_combine

    bits = result.data["bits"]
    distances = result.spec.axes[0].values
    table = np.empty((len(distances), len(MRC_FACTORS)))
    for row, distance in enumerate(distances):
        receptions = result.series(along="rep", distance_ft=distance)
        for col, factor in enumerate(MRC_FACTORS):
            detected = modem.demodulate(mrc_combine(receptions[:factor]), bits.size)
            table[row, col] = bit_error_rate(bits, detected)
    return table


def check_stereo(values) -> List[str]:
    """PESQ finite and within MOS range; the strongest power locks everywhere."""
    failures = []
    scores = np.array([score for score, _ in values], dtype=float)
    locks = np.array([locked for _, locked in values], dtype=bool).reshape(
        len(STEREO_POWERS_DBM), len(STEREO_DISTANCES_FT)
    )
    if not np.all(np.isfinite(scores)):
        failures.append("stereo_pesq: non-finite PESQ")
    elif scores.min() < MOS_RANGE[0] or scores.max() > MOS_RANGE[1]:
        failures.append(f"stereo_pesq: PESQ outside {MOS_RANGE}: {scores.tolist()}")
    strongest = int(np.argmax(STEREO_POWERS_DBM))
    if not locks[strongest].all():
        failures.append(
            f"stereo_pesq: {max(STEREO_POWERS_DBM)} dBm lost stereo lock: "
            f"{locks[strongest].tolist()}"
        )
    return failures


def check_mrc(table: np.ndarray) -> List[str]:
    """Fig. 9's claim: MRC-4 BER <= MRC-1 BER at every distance."""
    worse = np.nonzero(table[:, -1] > table[:, 0])[0]
    if worse.size:
        return [f"mono_mrc: MRC-4 BER above MRC-1 at rows {worse.tolist()}: {table.tolist()}"]
    return []


def same_bytes(a: List[object], b: List[object]) -> bool:
    """Byte-for-byte equality of two lists of result arrays."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


def _run_probes() -> Quality:
    from repro.engine import SweepRunner
    from repro.engine.cache import AmbientCache

    stereo = SweepRunner(stereo_scenario(), rng=PROBE_SEED, cache=AmbientCache()).run()
    modem, scenario = mrc_scenario()
    mono = SweepRunner(scenario, rng=PROBE_SEED, cache=AmbientCache()).run()
    table = score_mrc(modem, mono)
    return Quality(
        pesq_mean=float(np.mean([score for score, _ in stereo.values])),
        stereo_lock_ratio=float(np.mean([locked for _, locked in stereo.values])),
        ber_mean=float(table.mean()),
        failures=check_stereo(stereo.values) + check_mrc(table),
    )


def probe_key(source_dirs: List[str]) -> str:
    """Digest of everything a probe result depends on: the program's
    sources and the benchmark's own (which define the probes), Python,
    numpy and scipy, and the knobs the program reads."""
    import scipy

    digest = hashlib.sha256()
    for top in source_dirs:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    path = os.path.join(root, name)
                    digest.update(os.path.relpath(path, os.path.dirname(top)).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    digest.update(f"{platform.python_version()} {np.__version__} {scipy.__version__}".encode())
    for name, value in sorted(os.environ.items()):
        if name.startswith(("REPRO_", "OMP_", "OPENBLAS_")):
            digest.update(f"{name}={value}".encode())
    return digest.hexdigest()[:24]


def quality_probes(cache_dir: str, source_dirs: List[str]) -> Quality:
    """Fidelity of both chains at :data:`PROBE_SEED`, checked like a round.

    The probes are deterministic in :func:`probe_key`'s inputs, so their
    result is kept in ``cache_dir`` and the probes run once per checkout
    and program version instead of in every run.
    """
    path = os.path.join(cache_dir, f"probes-{probe_key(source_dirs)}.json")
    try:
        with open(path) as handle:
            return Quality(**json.load(handle))
    except FileNotFoundError:
        pass
    quality = _run_probes()
    with open(path + ".tmp", "w") as handle:
        json.dump(dataclasses.asdict(quality), handle)
    os.replace(path + ".tmp", path)
    return quality


# -- workloads ---------------------------------------------------------------


class Workload:
    """One closed-loop workload. Subclasses fill in the hooks."""

    name = ""
    imports = ""
    round_jobs = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def start(self) -> None:
        """Build fresh, cold state (caches, service) for a set-up."""

    def first_job(self) -> Job:
        """The set-up's job, run on cold state."""
        return self.job(0)

    def job(self, index: int) -> Job:
        raise NotImplementedError

    def journal_bytes(self) -> int:
        return 0

    def check(self, jobs: List[Job]) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`start` built."""


class StereoPesq(Workload):
    name = "stereo_pesq"
    imports = "repro.experiments.fig13_pesq_stereo"

    def start(self) -> None:
        from repro.engine.cache import AmbientCache

        self.scenario = stereo_scenario()
        self.cache = AmbientCache()

    def job(self, index: int) -> Job:
        from repro.engine import SweepRunner

        started = time.perf_counter()
        result = SweepRunner(self.scenario, rng=self.seed, cache=self.cache).run()
        return Job(time.perf_counter() - started, len(result.values), result.values,
                   self.seed, result.cache_stats)

    def check(self, jobs: List[Job]) -> List[str]:
        failures = []
        for job in jobs:
            failures += check_stereo(job.output)
            if job.output != jobs[0].output:
                failures.append("stereo_pesq: a pass differs from the first at the same seed")
        return failures


class MonoMrc(Workload):
    name = "mono_mrc"
    imports = "repro.experiments.fig09_mrc"

    def start(self) -> None:
        from repro.engine.cache import AmbientCache

        self.modem, self.scenario = mrc_scenario()
        self.cache = AmbientCache()

    def job(self, index: int) -> Job:
        from repro.engine import SweepRunner

        started = time.perf_counter()
        result = SweepRunner(self.scenario, rng=self.seed, cache=self.cache).run()
        table = score_mrc(self.modem, result)
        return Job(time.perf_counter() - started, len(result.values), table, self.seed,
                   result.cache_stats)

    def check(self, jobs: List[Job]) -> List[str]:
        failures = []
        for job in jobs:
            failures += check_mrc(job.output)
            if not np.array_equal(job.output, jobs[0].output):
                failures.append("mono_mrc: a pass differs from the first at the same seed")
        return failures


class ServiceFading(Workload):
    name = "service_fading"
    imports = "repro.experiments.fig09_mrc, repro.engine.service"
    round_jobs = SERVICE_FRESH_EVERY

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.service = None
        self._starts = 0
        self._picks = np.random.default_rng([seed, 9])
        self._fresh = np.random.default_rng([seed, 17])
        self.seeds = [int(self._fresh.integers(2 ** 31))]  # the set-up job's
        self.sequence: List[int] = []

    def seed_for(self, index: int) -> int:
        """Job ``index``'s seed: fresh when ``index % 4 == 0``, otherwise a
        uniform pick among the seeds used before it (set-up's included)."""
        while len(self.sequence) <= index:
            if len(self.sequence) % SERVICE_FRESH_EVERY == 0:
                self.seeds.append(int(self._fresh.integers(2 ** 31)))
                self.sequence.append(self.seeds[-1])
            else:
                self.sequence.append(self.seeds[int(self._picks.integers(len(self.seeds)))])
        return self.sequence[index]

    def start(self) -> None:
        from repro.engine.service import SweepService

        self.close()
        self._starts += 1
        run_dir = os.path.join(self.work_dir, f"service-{self._starts}")
        self.loop = asyncio.new_event_loop()
        self.scenario = service_scenario()
        self.service = SweepService(
            n_workers=2,
            shard_points=len(SERVICE_DISTANCES_FT) * max(MRC_FACTORS) // 2,
            max_parallel_jobs=1,
            cache_dir=os.path.join(run_dir, "cache"),
            journal_dir=os.path.join(run_dir, "journal"),
        )
        self.journal_dir = os.path.join(run_dir, "journal")

    def _run(self, seed: int) -> Job:
        async def submit_fetch():
            started = time.perf_counter()
            job_id = await self.service.submit(self.scenario, rng=seed)
            submitted = time.perf_counter()
            report = await self.service.fetch(job_id)
            return started, submitted, report

        started, submitted, report = self.loop.run_until_complete(submit_fetch())
        latency = time.perf_counter() - started
        return Job(latency, report.n_points, report.result.values, seed,
                   report.result.cache_stats, report, submitted)

    def first_job(self) -> Job:
        """The set-up job: the first seed, cold store."""
        return self._run(self.seeds[0])

    def job(self, index: int) -> Job:
        return self._run(self.seed_for(index))

    def check(self, jobs: List[Job]) -> List[str]:
        """Each distinct seed's merged result vs an in-process serial run."""
        from repro.engine import SweepRunner
        from repro.engine.cache import AmbientCache

        failures = []
        reference: Dict[int, list] = {}
        for job in jobs:
            if job.seed not in reference:
                reference[job.seed] = SweepRunner(
                    self.scenario, rng=job.seed, cache=AmbientCache(), backend="serial"
                ).run().values
            if not same_bytes(job.output, reference[job.seed]):
                failures.append(f"service_fading: job at seed {job.seed} differs from serial")
        return failures

    def journal_bytes(self) -> int:
        return sum(
            entry.stat().st_size for entry in os.scandir(self.journal_dir) if entry.is_file()
        )

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None
        if self.loop is not None:
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
            self.loop = None


WORKLOADS = {cls.name: cls for cls in (StereoPesq, MonoMrc, ServiceFading)}
