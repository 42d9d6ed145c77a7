"""Span tracing of the ``repro`` package from outside it.

:class:`Tracer` wraps the public functions and methods of every
``repro.<module>`` (the figure modules in ``repro.experiments`` are the
client, so only their shared ``common`` chain is wrapped) and records
one span per call: id, parent id, layer, start, end. Nothing in
``src/`` changes: wrappers replace module attributes and class
attributes while installed, and :meth:`Tracer.uninstall` puts every
original back, so untraced and traced rounds can alternate in one
process.

A layer is the defining module's dotted path below ``repro``
(``dsp.filters``, ``engine.launcher``). Its self time is the summed
duration of its spans minus the part their child spans cover.

Counts that a later change may rest on are taken by hooks on named
functions. The PLL's sample count is taken only at the entry into
``dsp.pll`` (the parent span belongs to another layer), because
``track_batch`` delegates narrow stacks to ``track``.

Worker processes forked by the distributed launcher inherit the
installed wrappers; the launcher's worker entry point is wrapped too,
so each worker starts with an empty span list and writes its per-layer
aggregates to ``dump_dir`` when it returns.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_CLIENT_PACKAGE = "repro.experiments"
_CLIENT_WRAPPED = ("repro.experiments.common",)
_HELPER_PACKAGE = "repro.utils"
"""Generic helpers (validation, units, env, rand), called per symbol in
the BER scoring; left unwrapped so their time counts in the caller's
layer instead of costing a span each."""


def import_all_modules() -> None:
    """Import every ``repro`` module, so each is wrapped."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        __import__(info.name)


def layer_of(module_name: str) -> str:
    return module_name[len("repro."):] if module_name.startswith("repro.") else module_name


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _wrapped_module(name: str) -> bool:
    if _in_package(name, _CLIENT_PACKAGE):
        return name in _CLIENT_WRAPPED
    return name.startswith("repro.") and not _in_package(name, _HELPER_PACKAGE)


def _size(array) -> int:
    return int(np.size(array))


# Hooks: (layer, qualname) -> f(counts, args, kwargs, result, entry).
def _count_pll(counts, args, kwargs, result, entry):
    if not entry:
        return
    signal = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    counts["dsp.pll.samples"] += _size(signal)


def _count_fir(counts, args, kwargs, result, entry):
    signal = args[1] if len(args) > 1 else kwargs["signal"]
    counts["dsp.filters.calls"] += 1
    counts["dsp.filters.samples"] += _size(signal)


def _count_pesq(counts, args, kwargs, result, entry):
    counts["audio.pesq.calls"] += 1


def _count_load(counts, args, kwargs, result, entry):
    if result is not None:
        counts["engine.store.loads"] += 1
        counts["engine.store.bytes"] += int(result.nbytes)


def _count_save(counts, args, kwargs, result, entry):
    value = args[2] if len(args) > 2 else kwargs["value"]
    counts["engine.store.saves"] += 1
    counts["engine.store.bytes"] += int(np.asarray(value).nbytes)


def _count_journal(counts, args, kwargs, result, entry):
    counts["engine.journal.records"] += 1


HOOKS: Dict[Tuple[str, str], Callable] = {
    ("dsp.pll", "PhaseLockedLoop.track"): _count_pll,
    ("dsp.pll", "PhaseLockedLoop.track_batch"): _count_pll,
    ("dsp.filters", "filter_signal"): _count_fir,
    ("audio.pesq", "pesq_like"): _count_pesq,
    ("engine.store", "CacheStore.load"): _count_load,
    ("engine.store", "CacheStore.save"): _count_save,
    ("engine.journal", "JobJournal.append"): _count_journal,
}


class Tracer:
    """Records spans of calls into ``repro`` while installed."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self._reset()
        self._patches: List[Tuple[object, str, object]] = []

    def _reset(self) -> None:
        # (id, parent id, layer, qualname, start, end)
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [(0, None)]
            return self._local.stack

    def _wrap(self, fn: Callable, layer: str, qualname: str) -> Callable:
        hook = HOOKS.get((layer, qualname))
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_layer = stack[-1]
            span_id = next(tracer._ids)
            stack.append((span_id, layer))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.spans.append((span_id, parent, layer, qualname, start, end))
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, parent_layer != layer)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method; rebind imported aliases."""
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        replaced: Dict[int, Callable] = {}
        for module in modules:
            if not _wrapped_module(module.__name__):
                continue
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if inspect.iscoroutinefunction(value):
                        continue
                    wrapper = self._wrap(value, layer, value.__qualname__)
                    replaced[id(value)] = wrapper
                    self._patch(module, name, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        # Modules that did ``from x import f`` hold the original object.
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and getattr(module, name) is not wrapper:
                    self._patch(module, name, wrapper)
        self._wrap_worker_entry()

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException) or getattr(cls, "_is_protocol", False):
            return
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(value, staticmethod):
                wrapper = staticmethod(self._wrap(value.__func__, layer, qualname))
            elif isinstance(value, classmethod):
                wrapper = classmethod(self._wrap(value.__func__, layer, qualname))
            elif inspect.isfunction(value) and not inspect.iscoroutinefunction(value):
                wrapper = self._wrap(value, layer, qualname)
            else:
                continue
            self._patch(cls, name, wrapper)

    def _wrap_worker_entry(self) -> None:
        """Give each forked launcher worker its own spans and a dump."""
        launcher = sys.modules.get("repro.engine.launcher")
        if launcher is None or self.dump_dir is None:
            return
        original = launcher._worker_main
        tracer = self

        def worker_main(*args, **kwargs):
            tracer._reset()
            try:
                return original(*args, **kwargs)
            finally:
                name = f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
                with open(os.path.join(tracer.dump_dir, name), "w") as handle:
                    json.dump(tracer.summary(), handle)

        self._patch(launcher, "_worker_main", worker_main)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original attribute back (in reverse patch order)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self/inclusive time, span count and entry counts."""
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, _layer, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        inclusive_s: Dict[str, float] = defaultdict(float)
        n_spans: Dict[str, int] = defaultdict(int)
        for span_id, _parent, layer, name, start, end in self.spans:
            self_s[layer] += (end - start) - child_time[span_id]
            inclusive_s[f"{layer}:{name}"] += end - start
            n_spans[layer] += 1
        return {
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive_s),
            "spans": dict(n_spans),
            "counts": dict(self.counts),
        }

    def span_starts(self, layer: str, name: str) -> List[float]:
        """Start times of every span of ``layer:name``, in order."""
        return sorted(s[4] for s in self.spans if s[2] == layer and s[3] == name)


def merge_summaries(summaries: List[dict]) -> dict:
    """Sum per-layer aggregates of several processes."""
    merged = {"self_s": defaultdict(float), "inclusive_s": defaultdict(float),
              "spans": defaultdict(int), "counts": defaultdict(int)}
    for summary in summaries:
        for section, table in merged.items():
            for key, value in summary.get(section, {}).items():
                table[key] += value
    return {section: dict(table) for section, table in merged.items()}


def read_worker_dumps(dump_dir: str) -> List[dict]:
    """Load (and remove) the summaries forked workers wrote."""
    summaries = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(dump_dir, name)
            with open(path) as handle:
                summaries.append(json.load(handle))
            os.unlink(path)
    return summaries
