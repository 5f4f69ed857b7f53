"""Gauge the host's speed with a fixed numpy loop, run between rounds.

On a shared host the same round can take 1.5x longer from one minute to the
next, as neighbours load the machine.  A timed run calls ``host_factor``
before its first round, after each round and after its set-up probes; a
time divided by the mean of the factors on either side of it is that time
on a host of the reference machine's speed.  The loop imports nothing from
sdepca, so a change to the program does not move it.  It does what BE's
inner loop does on one batch: a Python loop over steps, each a few Newton
updates on 600 states.
"""

from __future__ import annotations

import time

import numpy as np

N_STEPS = 1500
#: A fixed nominal time for the loop; the metrics compare runs, so only its
#: constancy matters (see README.md)
NOMINAL_S = 0.30


def _loop(n_steps: int) -> float:
    x0 = np.linspace(-2.0, 2.0, 600)
    x = x0.copy()
    h = 1.0 / 64
    for k in range(n_steps):
        y = x.copy()
        for _ in range(3):
            y -= (y - x - h * (y - y**3)) / (1.0 + h * (3.0 * y * y - 1.0))
        x = y + 0.05 * np.sin(x0 * (k % 7))
    return float(x.sum())


def host_factor() -> float:
    """The loop's time over its nominal time: 1.2 means the host runs 20% slow."""
    start = time.perf_counter()
    _loop(N_STEPS)
    return (time.perf_counter() - start) / NOMINAL_S
