"""A speedometer: fixed reference work that measures how fast the machine
is right now.

On a shared machine the same request can take twice as long from one
minute to the next, because other tenants contend for the cores, caches and
memory.  While a workload runs, a ``Speedometer`` interrupts it every
``PROBE_INTERVAL_S`` seconds (SIGALRM) and times one ``probe()``: a small,
fixed, program-independent piece of Python work.  The probe time is taken
out of the request's wall time, and the request is rescaled by
``PROBE_S / median(probe times while it ran)``.  Timings thus read as
"seconds on a machine where a probe takes ``PROBE_S``", which cancels most
of the drift.

The probes run inside the measured process, so they share its heap,
allocator and caches, and a change to cyclo2 that grows or shrinks its
working set could in principle move them.  No such effect was seen in
two sets of ten rounds, each round running the three workloads (peak
memory 38, 80 and 216 MiB) one after another.  The workloads' median
probe times differed by 3% in one set and 9% in the other, with the
workloads in a different order each time; within a set, the probe medians
of one workload's runs spread by 10-33% (interquartile range over median).

The probe mirrors what cyclo2 spends its time on: XOR elimination on
Python-int bitmasks, tuple-keyed dict and set churn, and recursive
enumeration of small tuples.  It allocates little, so it does not move the
peak memory of the process it runs in.  Never change this file together
with a performance claim: ``PROBE_S`` and the probe belong to the
benchmark definition.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# median probe time on the shared 2-core x86-64 machine the benchmark was defined
# on; only ratios matter, so it just keeps rescaled numbers near seconds
PROBE_S = 0.013
PROBE_INTERVAL_S = 0.5


def _eliminate() -> int:
    rng = random.Random(12345)
    pivots: dict[int, int] = {}
    for _ in range(300):
        v = rng.getrandbits(300)
        while v:
            p = (v & -v).bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    return len(pivots)


def _churn() -> int:
    table: dict[tuple, int] = {}
    words: set = set()
    for i in range(2500):
        key = (i % 61, i % 13, i % 7)
        table[key] = table.get(key, 0) ^ i
        words.symmetric_difference_update({(key[0], i % 5)})
    order = sorted(table, key=lambda k: (k[2], k[1], k[0]))
    return len(order) + len(words)


def _enumerate() -> int:
    degrees = (1, 1, 2, 2, 3, 3, 4)
    count = 0

    def rec(start: int, slots: int, used: int):
        nonlocal count
        if slots == 0:
            count += 1
            return
        for j in range(start, len(degrees)):
            if used + degrees[j] <= 12:
                rec(j, slots - 1, used + degrees[j])

    for slots in range(1, 8):
        rec(0, slots, 0)
    return count


def probe() -> float:
    """Wall time of one run of the reference work.

    The garbage collector is off meanwhile, so a probe neither collects the
    interrupted program's garbage nor shifts when the program collects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _eliminate()
        _churn()
        _enumerate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, probes: list[float]) -> float:
    """``seconds`` measured while probes took ``probes``, at reference speed."""
    return seconds * PROBE_S / statistics.median(probes)


class Speedometer:
    """Probes the machine every ``PROBE_INTERVAL_S`` seconds of wall time.

    ``paused`` accumulates the time spent in probes, so callers can take it
    out of their own measurements; ``on_probe(seconds)`` is called after
    each probe.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.probes: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        spent = time.perf_counter() - t0
        self.paused += spent
        if self.on_probe is not None:
            self.on_probe(spent)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


if __name__ == "__main__":
    print([round(probe(), 5) for _ in range(20)])
