"""Host-speed gauge: a fixed reference kernel timed beside each measurement.

The hosts this benchmark runs on share their cores with other tenants, and
their speed drifts by up to 2x over seconds to minutes.  On a 2-core
host the same small_dense pass took 4.1 to 7.0 s within two minutes, and
its process CPU time spread as much as its wall time, so the drift is a
slower CPU, not time spent waiting for one.  ``Gauge`` times one gauge unit
every ``INTERVAL_S`` on a thread of ``run.py``, a separate process
from the worker it measures, and ``factor`` converts a worker's time over an
interval to the reference speed: seconds on a host where one unit takes
``REFERENCE_UNIT_S``.

A unit is timed by the gauge thread's own CPU time.  The worker can take the
gauge's core, but time the gauge spends waiting for a core is not CPU time,
so the reading does not depend on how many cores or threads the measured
program uses.  ``waiting_share`` reports how often the gauge did wait (its
wall time over 1.5 times its CPU time); a high share means the measured
program kept every core busy.  The unit is plain interpreted Python and part
of the benchmark, so no change to decksym moves it.

Limits: the gauge runs on whichever core is free, which need not be the
worker's, so drift that hits one core only is missed.  Slowdowns that cost
CPU time on every core (frequency, shared caches) are what it corrects.
"""

from __future__ import annotations

import statistics
import threading
import time

REFERENCE_UNIT_S = 1e-3
INTERVAL_S = 0.1
MIN_SAMPLES = 5
WAITING_RATIO = 1.5


def _unit() -> tuple[float, float, float]:
    """(monotonic midpoint, CPU seconds, wall seconds) of one gauge unit."""
    wall, cpu = time.monotonic(), time.thread_time()
    total = 0
    for i in range(16_000):
        total += i * i
    cpu, end = time.thread_time() - cpu, time.monotonic()
    return (wall + end) / 2, cpu, end - wall


class Gauge:
    """``with Gauge() as gauge:`` samples the unit on a thread until the
    block ends.  Intervals are ``time.monotonic()`` readings, which are the
    same clock in every process of the host."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.samples.append(_unit())
            self._stop.wait(INTERVAL_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _around(self, start: float, end: float):
        """Samples inside [start, end], or the ``MIN_SAMPLES`` nearest its
        midpoint when the interval holds fewer."""
        inside = [s for s in self.samples if start <= s[0] <= end]
        if len(inside) >= MIN_SAMPLES:
            return inside
        mid = (start + end) / 2
        return sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured over [start, end] by this to get it at
        the reference speed."""
        return REFERENCE_UNIT_S / statistics.mean(s[1] for s in self._around(start, end))

    def unit_s(self) -> float:
        """Median CPU time of one unit over the whole gauge run."""
        return statistics.median(s[1] for s in self.samples)

    def waiting_share(self) -> float:
        """Share of samples in which the gauge waited for a core."""
        waited = sum(s[2] > WAITING_RATIO * s[1] for s in self.samples)
        return waited / len(self.samples)
