"""Scaling timed spans to a fixed machine speed with a calibration kernel.

On a shared host the speed a process gets swings by a factor of two within
seconds and drifts by 20% or more within a minute, with other tenants' load,
so raw wall times of the same code spread too widely to compare two versions
of it.  While a span is timed, a ``Sampler`` interrupts the process every
``INTERVAL_S`` of wall time and times one call of a small fixed kernel.  The
span's time, minus the time spent in those interruptions, is then scaled by
``REFERENCE_S / mean kernel time``: it reads as it would on a machine where
the kernel takes ``REFERENCE_S`` throughout.  The kernel is the benchmark's
own code and never calls codapol, so a change to codapol moves the scaled
times exactly as it moves the wall times.

The kernel is a chain of numpy calls on 20-element arrays: the per-call
dispatch cost that dominates codapol's per-tick updates at N=20.  Of the
candidates tried (interpreted loops, ufuncs on 2k to 64k floats, memory
streaming, float formatting), it tracked the wall time of the fs-sweep and
gallery workloads most closely, and its scaled times varied least.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the kernel's median seconds when sampled inside the workloads on a
# 2-vCPU VM of an Intel Xeon host (Python 3.11, numpy 2.4), so that scaled
# times there read close to wall times.
REFERENCE_S = 0.00085
# Wall seconds of workload between two kernel samples.
INTERVAL_S = 0.05

_X = np.linspace(0.0, 1.0, 20)


def kernel() -> float:
    """Seconds of one call of the fixed kernel."""
    t0 = time.perf_counter()
    x = _X.copy()
    for _ in range(150):
        x = np.sin(x) * 0.5 + np.cos(x) * 0.25
    if not np.isfinite(x).all():  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - t0


class Span:
    """A timed span: its wall time, the part spent in kernel samples, and those samples."""

    def __init__(self, wall: float, sampling: float, kernels: list[float]):
        self.wall, self.sampling, self.kernels = wall, sampling, kernels

    @property
    def net(self) -> float:
        """Wall seconds of the span's own work."""
        return self.wall - self.sampling


class Sampler:
    """Times ``kernel()`` every ``interval`` wall seconds, from a SIGALRM handler.

    The timer is re-armed when the handler ends, so samples never overlap and
    at least ``interval`` of the program's own work lies between two of them.
    Only the main thread runs the handler; use one ``Sampler`` at a time.
    With ``interval=None`` it takes no samples and its spans are plain wall
    times.
    """

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self.kernels: list[float] = []
        self.sampling = 0.0  # wall seconds spent in the handler
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernels.append(kernel())
        self.sampling += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Sampler":
        if self.interval is not None:
            kernel()  # warm-up
            self._previous = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.sampling, len(self.kernels)

    def since(self, mark: tuple[float, float, int]) -> Span:
        t0, sampling, n = mark
        return Span(time.perf_counter() - t0, self.sampling - sampling, self.kernels[n:])


def factor(kernels: list[float], typical: bool = False) -> float:
    """``REFERENCE_S`` over the kernel time of ``kernels``, timing a few now if there are none.

    The kernel time is their mean, which counts the preemptions a long span
    suffers as often as its samples do; with ``typical`` it is their median,
    to scale the median of many short spans, which leaves preempted ones out.
    """
    if not kernels:
        kernels = [kernel() for _ in range(5)]
    return REFERENCE_S / (statistics.median(kernels) if typical else statistics.fmean(kernels))
