"""In-memory span tracer installed around the package's layer functions.

The tracer replaces a function with a timing wrapper in every module of
the package that binds it, so a call is traced whichever name it goes
through (``logsae.cli.fit`` as well as ``logsae.estimation.fit``).
Spans are kept in flat arrays, one entry per call: name, owner, parent,
start and end.  A layer's self time is its spans' duration minus the time
covered by their child spans.

A function named in the layer table that no longer exists is recorded as
absent; the run goes on without it.  Counters read from a function's
arguments or result are likewise marked absent when the function's
signature or result shape has changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

TASK = "parallel.task"


@dataclass(frozen=True)
class Layer:
    """One traced function: span ``name`` for ``module.attr``.

    ``count`` maps the bound arguments and the result of one call to
    counter increments.  ``tasks`` marks an order-preserving map whose
    in-process tasks are traced as ``parallel.task`` spans; their self
    time is credited to the layer that called the map, because with one
    worker the map only loops over the caller's own work.
    """

    name: str
    module: str
    attr: str
    count: Callable[[dict, object], dict] | None = None
    tasks: bool = False


class Tracer:
    def __init__(self, package: str = "logsae"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.owner = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, owner: str | None = None, on_call=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``owner`` names the layer credited with the span's self time
        (itself by default).  ``on_call(args, kwargs)`` may return
        replacement arguments and receives the result afterwards.
        """
        nid = self._id(name)
        oid = nid if owner is None else self._id(owner)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = None
            if on_call is not None:
                args, kwargs, hook = on_call(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.owner.append(oid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    def _current_owner(self) -> str | None:
        idx = self._stack[-1]
        return None if idx < 0 else self.names[self.owner[idx]]

    def _counting(self, layer: Layer, fn):
        signature = _signature(fn)

        def on_call(args, kwargs):
            bound = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError:
                    bound = None
            if layer.tasks and bound is not None:
                args, kwargs = self._trace_tasks(bound, args, kwargs)
            if layer.count is None:
                return args, kwargs, None

            def hook(result):
                if bound is None:
                    self.absent.add(f"{layer.name}:counters")
                    return
                try:
                    increments = layer.count(bound.arguments, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.absent.add(f"{layer.name}:counters")
                    return
                for key, value in increments.items():
                    self.counters[key] = self.counters.get(key, 0.0) + float(value)

            return args, kwargs, hook

        return on_call

    def _trace_tasks(self, bound, args, kwargs):
        fn = bound.arguments.get("fn")
        workers = bound.arguments.get("n_workers", 1)
        if fn is None or workers is None or workers > 1:
            return args, kwargs  # tasks run in worker processes
        owner = self._current_owner()
        bound.arguments["fn"] = self.span(TASK, fn, owner=owner)
        return bound.args, bound.kwargs

    # ---------------------------------------------------------- installing

    def install(self, layers) -> None:
        """Wrap every layer function wherever the package binds it."""
        for layer in layers:
            try:
                module = importlib.import_module(layer.module)
                fn = getattr(module, layer.attr)
            except (ImportError, AttributeError):
                self.absent.add(layer.name)
                continue
            self._id(layer.name)
            on_call = self._counting(layer, fn) if layer.count or layer.tasks else None
            traced = self.span(layer.name, fn, on_call=on_call)
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    # ------------------------------------------------------------ results

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "owner": np.frombuffer(self.owner, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, stem) -> None:
        """Write spans to ``<stem>.npz`` and the rest to ``<stem>.json``."""
        np.savez(f"{stem}.npz", **self.arrays())
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "counters": self.counters,
                    "absent": sorted(self.absent),
                },
                fh,
                indent=1,
                sort_keys=True,
            )


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def layer_totals(names, name_id, owner, parent, start, end) -> dict:
    """Per-name call counts and self times from a span table.

    ``calls[name]`` counts spans named ``name`` and ``total_s[name]`` sums
    their durations; ``self_s[name]`` sums the self time of spans owned by
    ``name``, where a span's self time is its duration minus the durations
    of its direct children.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    children = np.zeros(duration.size)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    self_time = duration - children
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total_s = np.bincount(name_id, weights=duration, minlength=n)
    self_s = np.bincount(owner, weights=self_time, minlength=n)
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "total_s": {name: float(total_s[i]) for i, name in enumerate(names)},
        "self_s": {name: float(self_s[i]) for i, name in enumerate(names)},
    }
