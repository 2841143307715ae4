"""Operation timer that corrects for drift in the machine's speed.

On a shared virtual machine the same computation can take 20% longer for
seconds at a time, so raw wall times from runs made minutes apart differ
more than a code change should be allowed to move them. The clock runs a
fixed calibration kernel (Python loop plus small numpy calls, like the
measured code) at most every ``interval`` seconds between operations.
Each operation's wall time is scaled by ``REFERENCE_S / k``, where ``k`` is
the mean kernel time just before and just after the operation's window:
the result is the time the operation would take on a machine where the
kernel takes ``REFERENCE_S``. Raw wall times stay available.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_perf = time.perf_counter

# Kernel time on the machine the baseline was recorded on (2 vCPU x86-64
# virtual machine, Python 3.11, numpy 2.4), so scaled times read close to
# wall times there.
REFERENCE_S = 0.004


def kernel_seconds() -> float:
    x = np.linspace(0.0, 1.0, 64)
    start = _perf()
    total = 0.0
    for i in range(1600):
        total += i * 0.5
        total += float(np.dot(x, x))
    for i in range(24000):
        total += i
    return _perf() - start


class Clock:
    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self._kernel = [kernel_seconds()]  # one per window start, plus one at close
        self._last = _perf()
        self._raw = array("d")  # compact: listen records one entry per 10 ms chunk
        self._window = array("l")

    def record(self, start: float) -> int:
        """Record an operation that began at ``perf_counter() == start``
        and has just finished; returns its record id."""
        self._raw.append(_perf() - start)
        self._window.append(len(self._kernel) - 1)
        if _perf() - self._last >= self.interval:
            self._calibrate()
        return len(self._raw) - 1

    def _calibrate(self) -> None:
        self._kernel.append(kernel_seconds())
        self._last = _perf()

    def close(self) -> None:
        """Measure the kernel once more, closing the last window."""
        self._calibrate()

    def seconds(self, ids) -> list[float]:
        """Speed-corrected seconds of the given records."""
        k = self._kernel
        return [
            self._raw[i] * 2.0 * REFERENCE_S / (k[self._window[i]] + k[self._window[i] + 1])
            for i in ids
        ]

    def raw_seconds(self, ids) -> list[float]:
        return [self._raw[i] for i in ids]

    @property
    def speed(self) -> float:
        """Mean machine speed relative to the reference (above 1: faster)."""
        return REFERENCE_S * len(self._kernel) / sum(self._kernel)
