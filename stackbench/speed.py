"""Reference-speed calibration for a host whose CPU speed drifts.

On shared hosts the same CPU-bound op can take anywhere between 1x and
~1.8x its best time, in phases lasting seconds, with no steal recorded
(the process's CPU time grows with its wall time).  Each virtual CPU
switches speed on its own, and the host as a whole can run 1.5x faster
or slower from one hour to the next.  A run that happens to spend more
of its time in a slow phase then reads as a regression.

The benchmark therefore pins itself, and the server, worker and set-up
processes it starts, to one CPU (:func:`pin_to_one_cpu`), and times a
fixed calibration loop on it (benchmark-owned code: a few
``scipy.special.logsumexp`` calls and a pure-Python loop, the two kinds
of work the solvers do) every :data:`INTERVAL_S` seconds between ops.
Each op's wall time is scaled by ``REFERENCE_S / calibration time``
around that op, and each set-up by the calibrations taken just before
and just after it.  Ops whose forked workers run on every CPU are
scaled by the mean calibration of all CPUs.  The scaled times are seconds at the reference speed:
the speed at which the loop takes :data:`REFERENCE_S`.  Raw wall-clock
figures are printed beside them.
"""

from __future__ import annotations

import bisect
import os
import statistics
from time import perf_counter

import numpy as np
from scipy.special import logsumexp

#: Seconds the calibration loop takes at the reference speed: its
#: fast-phase time (best of three) on a 2-core 2.0 GHz Xeon virtual
#: machine, so scaled times read close to that host's fast-phase times.
REFERENCE_S = 0.0022

#: Seconds between calibrations.
INTERVAL_S = 0.2

#: Calibrations this close to an op (seconds) set its scale.  Slow and
#: fast phases last seconds, so a one-second window follows them while
#: the median discards single noisy samples.
WINDOW_S = 0.5

_SAMPLE = np.linspace(-3.0, 3.0, 200)


def calibration_loop() -> float:
    total = 0.0
    for _ in range(20):
        total += float(logsumexp(_SAMPLE))
    acc = 0
    for i in range(10_000):
        acc += i * i
    return total + acc


def pin_to_one_cpu() -> tuple[int, list[int]]:
    """Pin this process to its first allowed CPU; return it and every
    allowed CPU.

    Children started with ``subprocess`` inherit the pin, so a server
    and its one client share the calibrated CPU (a closed loop never
    needs two at once).  Processes the program itself forks (the
    ``process-sharded`` pool) get every CPU back, so sharding still runs
    in parallel.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))
    return cpus[0], cpus


def _calibrate() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        calibration_loop()
        best = min(best, perf_counter() - t0)
    return best


class Speedometer:
    """Calibration samples over a run, and the scale factor they imply.

    ``others`` are further CPUs to calibrate at each sample, for ops
    whose work fans out over every CPU (forked shard workers): those
    ops are scaled by the mean calibration of all CPUs.
    """

    def __init__(self, others=()) -> None:
        self.others = list(others)
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.all_cpu_seconds: list[float] = []

    def sample(self) -> None:
        own = _calibrate()
        self.seconds.append(own)
        if self.others:
            home = os.sched_getaffinity(0)
            calibrations = [own]
            for cpu in self.others:
                os.sched_setaffinity(0, {cpu})
                calibrations.append(_calibrate())
            os.sched_setaffinity(0, home)
            self.all_cpu_seconds.append(sum(calibrations) / len(calibrations))
        self.times.append(perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def current_scale(self) -> float:
        """The scale the latest calibration implies."""
        return REFERENCE_S / self.seconds[-1]

    def scale(self, t0: float, t1: float, all_cpus: bool = False) -> float:
        """``REFERENCE_S`` over the calibration time around ``[t0, t1]``.

        The calibration time is the median of the samples taken within
        :data:`WINDOW_S` of the op, and at least of the last sample
        before it and the first after it; with ``all_cpus``, of the
        samples averaged over every calibrated CPU.
        """
        if not self.times:
            raise RuntimeError("no calibration samples")
        lo = max(0, min(bisect.bisect_left(self.times, t0 - WINDOW_S),
                        bisect.bisect_right(self.times, t0) - 1))
        hi = max(bisect.bisect_right(self.times, t1 + WINDOW_S),
                 bisect.bisect_left(self.times, t1) + 1)
        series = self.all_cpu_seconds if all_cpus and self.others else self.seconds
        return REFERENCE_S / statistics.median(series[lo:hi])
