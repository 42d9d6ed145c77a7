"""Check that the traced run's counts repeat exactly.

Runs ``run.py --trace 1`` twice per workload with the same arguments and
fails when any count below differs between the two runs. A later change
may rest a count-based claim only on counts that pass this check.

    python3 perfbench/counts_check.py                  # every workload
    python3 perfbench/counts_check.py --workload mono_mrc --seed 7

``engine.journal.bytes`` is reported but not required to repeat: each
shard-done journal record carries the shard's measured ``elapsed_s`` as
a JSON float, whose printed length varies by a few characters.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stereo_pesq", "mono_mrc", "service_fading")
EXACT = (
    "engine.cache.hits", "engine.cache.misses", "engine.cache.disk_hits",
    "engine.cache.syntheses", "dsp.pll.samples", "dsp.filters.calls",
    "dsp.filters.samples", "audio.pesq.calls", "engine.journal.records",
    "engine.store.loads", "engine.store.saves", "engine.store.bytes",
    "engine.launcher.shards", "engine.launcher.retries", "engine.launcher.failures",
    "engine.process_backend.warm_syntheses",
)
REPORTED = ("engine.journal.bytes",)


def traced_metrics(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    mismatches = 0
    for workload in workloads:
        first = traced_metrics(workload, args.seed, args.seconds)
        second = traced_metrics(workload, args.seed, args.seconds)
        for name in EXACT + REPORTED:
            same = first[name] == second[name]
            status = "same" if same else ("DIFFERS" if name in EXACT else "differs")
            print(f"{workload:15s} {name:40s} {first[name]!r:>14} {second[name]!r:>14} {status}")
            mismatches += name in EXACT and not same
    print("counts repeat exactly" if not mismatches else f"{mismatches} count(s) differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
