"""Rescale pass wall times to a reference CPU speed.

On a shared machine the speed of one CPU drifts by tens of percent over
seconds, as other tenants load the same cores; a 20-second run then lands
on a fast or a slow stretch, and raw wall times spread far more than the
effects the benchmark must resolve. ``SpeedProbe`` samples that speed on
the thread that runs the pass: every ``INTERVAL_S`` a SIGALRM handler
times one fixed piece of Python and numpy work that calls no qmetro code.
The pass's wall time is then rescaled by ``REFERENCE_NS / mean probe time``
so that it reads as the time the pass takes when the probe runs at its
reference speed. The probe costs about 1 % of a pass.

The probe runs in the cache state the pass leaves, as the pass's own code
does, and that is why it tracks the pass so closely (see README.md). It
also means the probe time depends on the workload: a change to a pass's
working set can move the probe time too. A change that claims a gain
shows the raw times and slowdowns from the report next to ``wall_s``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
#: mean probe time during passes on the fast stretches of the reference
#: machine (2 vCPUs, see README.md); only sets the scale of rescaled times
REFERENCE_NS = 50_000

_A = np.array([[0.6, 0.2j], [-0.2j, 0.4]])


def probe_ns() -> int:
    """Time one fixed piece of interpreter and small-matrix numpy work."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(200):
        acc += i * i
    m = np.kron(_A, _A)
    for _ in range(2):
        m = m @ m
        acc += np.einsum("ij,ji->", m, m).real
    return time.perf_counter_ns() - start


class SpeedProbe:
    """Context manager that samples ``probe_ns`` while a pass runs."""

    def __init__(self):
        self.samples: list[int] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_ns())

    def __enter__(self):
        self.samples = [probe_ns()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_ns())
        return False

    def slowdown(self) -> float:
        """Mean probe time over its reference: above 1 on a slow stretch."""
        return statistics.fmean(self.samples) / REFERENCE_NS
