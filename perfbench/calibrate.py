"""Machine-speed calibration: a fixed slice of work that does not use crowdplan.

On a virtual machine with shared CPUs the speed of identical work drifts by
tens of percent over seconds and minutes, with neighbours on the host; on a
2-core machine both a pure-Python loop and one sweep pass ranged over +-25%
within two minutes, with no CPU steal recorded. A fixed work slice timed right
before and after each request tells how fast the machine was at that moment,
and a request's time is reported as it would read at the reference speed:

    normalised = raw seconds * REF_SLICE_S / (seconds per slice nearby)

The slice mirrors the program's per-task style (tiny numpy arrays, scipy's
logsumexp, string formatting, dict inserts), so contention slows it about as
much as it slows crowdplan. It lives in the benchmark, so a change to crowdplan
cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import logsumexp

# Tasks per slice: about 5 ms on a 2-core x86-64 virtual machine.
SLICE_TASKS = 32
# The reference speed: seconds per slice on that machine when it was quiet.
REF_SLICE_S = 0.005
# Calibration time after a request, as a share of the request's time.
SHARE = 0.2

_TABLE = np.log(np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]]))
_PRIOR = np.log(np.array([0.55, 0.45]))


def _slice() -> int:
    out = {}
    for t in range(SLICE_TASKS):
        counts = np.zeros(3)
        counts[t % 3] += 1.0
        counts[(t * 7) % 3] += 2.0
        log_joint = _PRIOR + counts @ _TABLE
        probs = np.exp(log_joint - logsumexp(log_joint))
        out[f"t{t:06d}"] = f"{probs[0]:.9f},{probs[1]:.9f}"
    return len(out)


def run(slices: int) -> tuple[float, int]:
    """Time `slices` slices; returns (seconds, slices)."""
    start = time.perf_counter()
    for _ in range(slices):
        _slice()
    return time.perf_counter() - start, slices


def after(seconds: float) -> tuple[float, int]:
    """Calibrate after a request of `seconds`: SHARE of its time, at least one slice."""
    return run(max(1, math.ceil(SHARE * seconds / REF_SLICE_S)))


def slowdown(*samples: tuple[float, int]) -> float:
    """How much slower than the reference speed the samples ran (1.0 = reference)."""
    seconds = sum(s for s, _ in samples)
    slices = sum(n for _, n in samples)
    return seconds / slices / REF_SLICE_S
