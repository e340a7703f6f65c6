"""Host-speed probe: a fixed kernel, timed between the ops of a run.

On a shared host the speed of the CPU drifts by 20-100 % over minutes, as
other tenants come and go, and a run's op latencies drift with it.  The
kernel below calls no sftlab code, so no change to the program moves its
time; its samples around an op measure how fast the host was at the time.
An op latency times ``REFERENCE_S / sample`` is the latency rescaled to a
host on which the kernel takes ``REFERENCE_S``: that cancels the drift the
op and the kernel share, and keeps every change in the program's own speed.

The kernel is numpy arithmetic on (101, 100) float arrays in a Python loop.
On op series recorded from every workload it tracked the drift better than
numpy calls on 100-element arrays or scalar float arithmetic in the
interpreter, which on mc_scan made the rescaled times 2.5x noisier than the
raw ones (see bench/NOTES.md).
"""

from __future__ import annotations

import time

import numpy as np

# About the median time of one sample on a 2-CPU Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6).  Any fixed value would do: it only sets the scale.
REFERENCE_S = 0.02

_rng = np.random.default_rng(12345)
_ENTRIES = 0.5 + _rng.random((101, 4))
_LETTERS = _rng.integers(0, 4, (100, 200))


def _kernel() -> float:
    m11, m12, logs = np.ones((101, 100)), np.zeros((101, 100)), np.zeros((101, 100))
    for t in range(_LETTERS.shape[1]):
        a = _ENTRIES[:, _LETTERS[:, t]]
        n11, n12 = a * m11 + m12, a * m12 + 0.5
        mag = np.maximum(np.abs(n11), np.abs(n12))
        logs += np.log(mag)
        m11, m12 = n11 / mag, n12 / mag
    return float(logs.sum())


def sample() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
