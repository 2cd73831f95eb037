"""Host-speed probe: corrects a child's times for how fast its core ran.

The benchmark runs on a few cores of a shared host.  Each core switches,
several times a second, between a fast state and one almost twice as
slow, and the share of time spent slow drifts over minutes.  So the same
run, repeated, takes up to twice as long, and medians over more or longer
runs do not steady it: runs a minute apart sit in different drift phases.

``Probe`` samples that share while the work runs.  An interval timer
(``SIGALRM``) interrupts the work on its own core and times a fixed
kernel that touches no qflow code, so a change to qflow moves the work's
time and not the kernel's.  The kernel's time over the reference VM's
typical time for it is one slowdown sample; the mean over a phase (the
slowest ``TRIM`` share dropped, as those samples were preempted) follows
the slow share of that phase, and

    corrected time = (raw wall time - time spent in the probe) / slowdown

is the phase's wall time at the reference speed.  The reference times
are the kernels' typical times on the 2-core VM the benchmark was tuned
on, so there, corrected and raw times agree on average.  Set-up (mostly
imports) is probed with pure-Python arithmetic every 25 ms; the run with
small-array numpy calls, the hot loops' kind of work, every 100 ms.
"""

from __future__ import annotations

import signal
import time

TRIM = 0.1  # share of the slowest samples dropped


def interp_kernel() -> float:
    """Interpreter arithmetic only: set-up is mostly imports, and numpy
    is not imported yet while it runs."""
    s = 0
    for i in range(3000):
        s += i & 7
    return float(s)


def run_mode():
    """The run's probe; call once qflow (and so numpy) is imported."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 401)

    def array_kernel() -> float:
        """The hot loops' kind of work: many numpy calls on small arrays
        (a centred difference on 401 points), where interpreter and
        dispatch cost dominate."""
        s = 0.0
        for _ in range(300):
            s += float(((a[2:] - a[:-2]) * 0.5)[7])
        return s

    return (array_kernel, 0.1, REF_ARRAY_S)


# kernel times on the reference VM (s; NOTES.md)
REF_INTERP_S = 2.1e-4
REF_ARRAY_S = 9.3e-4
# (kernel, probe period in s, reference time)
SETUP = (interp_kernel, 0.025, REF_INTERP_S)


class Probe:
    """Kernel samples ``(monotonic time, slowdown)`` from the first ``use``
    until ``stop``; ``use`` switches between ``SETUP`` and ``run_mode()``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # wall time inside the handler, all samples
        self.mode = SETUP

    def _sample(self, signum=None, frame=None) -> None:
        kernel, _, ref = self.mode
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((time.monotonic(), (t1 - t0) / ref))
        self.spent += time.perf_counter() - t0

    def use(self, mode) -> None:
        self.mode = mode
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, mode[1], mode[1])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def slowdown(self, begin: float, end: float) -> float:
        """Slowdown against the reference VM over ``[begin, end]``
        (monotonic times); all samples if that window holds none."""
        window = [d for t, d in self.samples if begin <= t <= end]
        ratios = sorted(window or [d for _, d in self.samples] or [1.0])
        kept = ratios[:max(1, len(ratios) - int(TRIM * len(ratios)))]
        return sum(kept) / len(kept)
