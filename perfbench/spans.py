"""Benchmark-side instrumentation of the bundleobs modules.

Nothing in the library changes: the benchmark replaces module attributes
with wrappers after import.  Every module global that refers to a wrapped
function is rebound, so calls made through ``from .x import f`` names are
caught too.

Two probes exist:

* ``StepClock`` (always on) wraps ``integrate_system`` and hands it a
  ``record`` callback that reads the clock once per sample and passes the
  interval since the last sample to a meter, before calling the scenario's
  own callback.  Without one it passes a callback that returns no extras,
  which leaves the trajectory unchanged.
* ``Tracer`` (traced runs only) records a span (name, start, end, parent)
  for each call of the public functions of each layer and keeps them in
  arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("groups", "actions", "observer", "systems", "integrate", "bundle", "cli")

# Class members traced as layer functions: (module, class, attribute, span name).
_METHODS = (
    ("groups", "GroupElement", "__init__", "groups.GroupElement"),
    ("groups", "GroupElement", "__matmul__", "groups.compose"),
    ("groups", "GroupElement", "inverse", "groups.inverse"),
    ("groups", "AlgebraElement", "__init__", "groups.AlgebraElement"),
    ("actions", "Point", "__init__", "actions.Point"),
    ("observer", "ObserverProblem", "error_cost", "observer.error_cost"),
)

PROBE = "perfbench.probe"


def rebind(package: str, original, replacement) -> None:
    """Point every ``package`` module global that is ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class StepClock:
    """One clock read per trajectory sample of ``integrate_system``.

    ``meter.step(now, interval)`` receives each read and returns the time
    the next interval starts from, so the meter may pause the clock.
    """

    def __init__(self, meter):
        self.meter = meter
        self.steps = 0
        self.tracer: Tracer | None = None

    def install(self, integrate_module) -> None:
        original = integrate_module.integrate_system

        @functools.wraps(original)
        def integrate_system(rate, config, state0, sides=None, record=None):
            last = None
            samples = 0
            clock, meter = time.perf_counter, self.meter
            tracer = self.tracer
            if tracer is not None:
                rate = tracer.wrap(f"{rate.__module__.rsplit('.', 1)[-1]}.rate", rate)
                if record is not None:
                    record = tracer.wrap(f"{record.__module__.rsplit('.', 1)[-1]}.record", record)

            def timed_record(t, state):
                nonlocal last, samples
                now = clock()
                last = meter.step(now, None if last is None else now - last)
                samples += 1
                out = record(t, state) if record is not None else {}
                if tracer is not None:
                    # every call after the initial sample belongs to a step
                    tracer.in_step = True
                return out

            try:
                return original(rate, config, state0, sides, timed_record)
            finally:
                if tracer is not None:
                    tracer.in_step = False
                self.steps += max(samples - 1, 0)

        rebind("bundleobs", original, integrate_system)


class Tracer:
    """In-memory span recorder.

    A span's ``in_step`` flag is set when it starts inside the integrator's
    step loop (after the initial sample), which is the scope of the
    ``calls_per_step`` counts.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stepped = array("b")
        self._stack = [-1]
        self.in_step = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        """Return ``fn`` recording a span per call; ``probe(*args)`` runs first
        in a span of its own, so its cost is not charged to ``fn``."""
        nid, pid = self._id(name), self._id(PROBE)
        name_id, parent, start, end, stepped = (
            self.name_id, self.parent, self.start, self.end, self.stepped)
        stack, clock = self._stack, time.perf_counter

        def enter(i):
            idx = len(name_id)
            name_id.append(i)
            parent.append(stack[-1])
            stepped.append(self.in_step)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            return idx

        def leave(idx):
            end[idx] = clock()
            stack.pop()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                idx = enter(pid)
                try:
                    probe(*args, **kwargs)
                finally:
                    leave(idx)
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    def install(self, modules: dict, probes: dict) -> None:
        """Wrap the public functions of each layer module and the members in
        ``_METHODS``; ``probes`` maps span names to probe callables."""
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                rebind("bundleobs", fn, self.wrap(name, fn, probes.get(name)))
        for layer, cls_name, attr, name in _METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr], probes.get(name)))

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "in_step": np.array(self.stepped, dtype=bool),
        }

    def summary(self) -> dict:
        """Per span name: calls, calls inside steps, self seconds, total seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=n)
        step_calls = np.bincount(ids[a["in_step"]], minlength=n)
        self_s = np.bincount(ids, weights=self_time, minlength=n)
        total_s = np.bincount(ids, weights=dur, minlength=n)
        return {
            name: {"calls": int(calls[i]), "step_calls": int(step_calls[i]),
                   "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }
