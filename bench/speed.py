"""Machine-speed probe: rescale measured times to a reference speed.

The benchmark runs on shared hosts whose effective speed moves by up to 1.7x
for seconds to minutes at a time (other tenants on the same cores).  Raw
wall times of 25-second runs then spread by 20-80% between runs of the same
code, which hides any change smaller than that.  A fixed numpy kernel that
belongs to the benchmark, not to the program, is timed every
``INTERVAL_S`` seconds from a timer signal in the measuring thread, so it
samples the same core state the program sees.  Each op's wall time, less the
probe time spent inside it, is multiplied by ``REFERENCE_S`` over the probe
time in force during the op.  With this kernel the rescaled throughput of
the same code spread 2.5-15% where the raw one spread 19-83% (README.md); a
change to the program moves the rescaled time as it moves the wall time,
because the probe runs no program code.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: probe duration that defines the reference speed: about what the probe
#: takes on an uncontended Xeon (Sapphire Rapids) KVM guest core
REFERENCE_S = 6e-4

#: seconds between probes while ops run (about 1-2% of the time)
INTERVAL_S = 0.1

#: samples before an op that join those taken during it
CONTEXT = 4

_SIZE = 21       # the preset's chain size: small-array numpy dispatch
_ROUNDS = 100


class SpeedProbe:
    """Times the probe kernel on demand and, inside ``with``, periodically."""

    def __init__(self):
        self._matrix = np.random.default_rng(0).random((_SIZE, _SIZE))
        self.samples: list[float] = []
        self.total = 0.0
        self._previous_handler = None

    def sample(self) -> float:
        started = time.perf_counter()
        x = self._matrix
        for _ in range(_ROUNDS):
            x = np.exp(-(x @ self._matrix) / _SIZE)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.total += elapsed
        return elapsed

    def scale(self, first_sample: int) -> float:
        """REFERENCE_S over the probe time in force since ``first_sample``:
        the median of the samples taken since then and of the ``CONTEXT``
        taken just before, which damps the noise of single samples."""
        start = max(0, min(first_sample, len(self.samples) - 1) - CONTEXT)
        return REFERENCE_S / statistics.median(self.samples[start:])

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
