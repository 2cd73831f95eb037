"""Span tracing of qflow from outside the package.

``Tracer.install`` wraps every public function of the listed qflow modules
and ``ModeProjector.__call__``.  Callers import public functions by name
(``from .stencils import derivative`` in lagrangian, reconstruction,
spectral and pipeline), so each wrapper is rebound in every qflow module
that holds the original, not only in the defining module.

Each span records its name, start, end and parent in flat arrays (one run
id per tracer), kept in memory until the run ends.  ``summary`` turns
them into per-name count, total, self time (duration minus the children's
durations), median and p99, plus the counters taken at the same
boundaries: steps, computed bytes and bytes written.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array

import numpy as np

from qflow.lagrangian import ModeProjector

TRACED_MODULES = ("stencils", "lagrangian", "reconstruction", "spectral",
                  "qtm", "kinematics", "pipeline", "output", "model",
                  "benchmarks", "config")


def _steps_from_times(times, stride):
    """Integrator steps implied by snapshot times taken every ``stride``
    steps (the first interval is a full stride, the last ends at t_final)."""
    if len(times) < 2 or times[1] <= times[0]:
        return len(times) - 1
    return int(round((times[-1] - times[0]) * stride / (times[1] - times[0])))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``.  ``after(tracer, arguments,
        result)`` runs once the call returns, to take counters; it gets the
        bound arguments by name, or None when it is marked ``by_result``."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack = self._stack
        clock = time.perf_counter
        bind = after is not None and not getattr(after, "by_result", False)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if bind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result)
            elif after is not None:
                after(self, None, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap and rebind every public qflow function, for the rest of the
        process; see the module doc."""
        replace = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"qflow.{short}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self.wrap(f"{short}.{attr}", obj,
                                                 _AFTER.get(f"{short}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qflow" or name.startswith("qflow.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        ModeProjector.__call__ = self.wrap("lagrangian.ModeProjector",
                                           ModeProjector.__call__)

    # -- results ------------------------------------------------------------

    def save(self, path) -> None:
        """Write the raw spans (compressed numpy archive)."""
        np.savez_compressed(path, run_id=self.run_id, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.intc),
                            parent=np.frombuffer(self.parent, dtype=np.intc),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))

    def summary(self) -> dict:
        """Per span name: count, total_s, self_s, median_us, p99_us."""
        ids = np.frombuffer(self.name_id, dtype=np.intc)
        par = np.frombuffer(self.parent, dtype=np.intc)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        has_parent = par >= 0
        child_time = np.bincount(par[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        spans = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            if not np.any(sel):
                continue
            d = dur[sel]
            spans[name] = {
                "count": int(d.size),
                "total_s": float(np.sum(d)),
                "self_s": float(np.sum(self_time[sel])),
                "median_us": float(np.median(d) * 1e6),
                "p99_us": float(np.percentile(d, 99) * 1e6),
            }
        return {"run_id": self.run_id, "spans": spans,
                "counters": dict(self.counters)}


# -- counters taken at the wrapped boundaries --------------------------------

def _derivative_bytes(tracer, args, out):
    # bytes the kernel reads (f) and writes (out), computed from array sizes
    tracer.count("stencils.derivative.bytes_computed", 2 * out.nbytes)


_derivative_bytes.by_result = True


def _evolve_steps(tracer, args, snapshots):
    tracer.count("lagrangian.steps", _steps_from_times(
        [s.t for s in snapshots], args["config"].snapshot_stride))


def _split_step_steps(tracer, args, snapshots):
    tracer.count("spectral.steps", _steps_from_times(
        [s.t for s in snapshots], args["snapshot_stride"]))


def _qtm_steps(tracer, args, result):
    tracer.count("qtm.steps", _steps_from_times(
        [s.t for s in result.snapshots], args["config"].snapshot_stride))


def _bytes_written(tracer, args, _result):
    tracer.count("output.bytes_written", os.path.getsize(args["path"]))


_AFTER = {
    "stencils.derivative": _derivative_bytes,
    "lagrangian.evolve": _evolve_steps,
    "spectral.split_step_evolve": _split_step_steps,
    "qtm.qtm_evolve": _qtm_steps,
    "output.write_trajectories": _bytes_written,
    "output.write_fields": _bytes_written,
    "output.write_summary": _bytes_written,
}
