"""Core-speed probe that puts timings from a noisy shared host on one scale.

On shared virtual machines the speed of a core drifts by tens of percent
over seconds to minutes, with each core drifting on its own, so raw timings
of the same work taken minutes apart differ by far more than any regression
worth catching.  The probe runs a fixed kernel from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time while a pass runs, in the same process and
thus on the same core as the work.  ``clock()`` excludes the time the probe
spends, and a time measured on it is multiplied by ``KERNEL_REF_S / mean
kernel time`` over the samples taken during it (at least ``MIN_WINDOW_S``
of them) to give reference seconds: the time the work would take on a core
that runs the kernel in ``KERNEL_REF_S``.  A kernel tracks best the work
it resembles, so each workload names one: ``loop`` is a Python loop over
tiny numpy arrays, like the Sturm and Newton loops; ``mixed`` adds
arithmetic on 4096-node arrays, like the flow stencils.  The kernels share
no code with the package, so a change to the package never changes the
scale.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.2
MIN_WINDOW_S = 2.0
KERNEL_REF_S = 0.008


def _tiny_loop(steps):
    """A scalar recurrence over short vectors, ~10 us per step."""
    q = np.linspace(-1.0, 1.0, 8)
    d = np.linspace(0.5, 2.0, steps)
    count = 0
    for i in range(steps):
        q = d[i] - 0.3 / np.where(np.abs(q) < 1e-30, -1e-30, q)
        count += int(np.count_nonzero(q < 0))
    return count


def _stencil(steps, n=4096):
    """Explicit stencil updates of a long vector, ~90 us per step."""
    h = np.linspace(0.0, 2.0 * np.pi, n)
    for _ in range(steps):
        h = h + 1e-3 * (np.roll(h, 1) - 2.0 * h + np.roll(h, -1) - 0.5 * np.sin(2.0 * h))
    return int(np.count_nonzero(h > np.pi))


# each takes 5 to 10 ms, depending on the state of the core
KERNELS = {"loop": lambda: _tiny_loop(800),
           "mixed": lambda: _tiny_loop(400) + _stencil(40)}


class SpeedProbe:
    """Samples a kernel's time while a timed region runs; use as a context."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        at = self.clock()
        start = time.perf_counter()
        self.kernel()
        self.samples.append((at, time.perf_counter() - start))
        self._spent += time.perf_counter() - start

    def clock(self):
        """perf_counter minus the time spent in the probe."""
        return time.perf_counter() - self._spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a region shorter than one interval
            self._sample(None, None)
        return False

    def scale(self, start, end):
        """Factor from clock seconds in [start, end] to reference seconds."""
        pad = max(0.0, 0.5 * (MIN_WINDOW_S - (end - start)))
        times = [dt for at, dt in self.samples if start - pad <= at <= end + pad]
        times = times or [dt for _, dt in self.samples]
        return KERNEL_REF_S / (sum(times) / len(times))
