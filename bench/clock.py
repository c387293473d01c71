"""Operation times scaled to a fixed machine speed.

The machine this benchmark runs on is shared: the same pure-Python loop
measured a few seconds apart varies by up to 2x, and 30-second runs of one
workload drifted by 20-40% over a few minutes. Those swings hit every
timing, so each timing is scaled by the machine's current speed, measured
with a calibration kernel that is independent of slicemetrics: a pure-Python
group-by-and-sum over fixed data, like the library's own inner loops. The
kernel runs after every timed operation; an operation's time is multiplied
by ``REFERENCE_S / median(last WINDOW kernel times)``, so the metrics read as
seconds on a machine where the kernel takes ``REFERENCE_S``: about its time
when run alone, with warm caches, under Python 3.11 on a two-core x86-64 VM.
Between operations the kernel runs with cold caches and takes about twice as
long, so scaled times read about half the raw ones. BASELINE.md shows the
run-to-run spread with and without the scaling.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import deque

REFERENCE_S = 0.002
WINDOW = 5
_ROWS = 20_000


class SpeedClock:
    """Calibration kernel plus the scaling of measured times."""

    def __init__(self):
        rng = random.Random(7)
        self._keys = [(f"r{rng.randrange(8)}", f"p{rng.randrange(4)}") for _ in range(_ROWS)]
        self._values = [rng.random() for _ in range(_ROWS)]
        self._recent: deque[float] = deque(maxlen=WINDOW)
        for _ in range(WINDOW):
            self.calibrate()

    def _kernel(self):
        groups: dict[tuple[str, str], list[int]] = {}
        for i, key in enumerate(self._keys):
            groups.setdefault(key, []).append(i)
        return {key: math.fsum(self._values[i] for i in rows) / len(rows)
                for key, rows in groups.items()}

    def calibrate(self):
        started = time.perf_counter()
        self._kernel()
        self._recent.append(time.perf_counter() - started)

    def scaled(self, elapsed: float) -> float:
        """Calibrate, then scale a time just measured to the reference speed."""
        self.calibrate()
        return elapsed * REFERENCE_S / statistics.median(self._recent)
