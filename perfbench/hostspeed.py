"""Host-speed normalization of timings.

The benchmark host shares its cores with other tenants.  Its speed for
pure-Python exact arithmetic swings by 30-60 % within seconds, on each CPU
independently, so raw medians of whole runs differ by 10-30 % from one run
to the next.  Each timed measurement therefore runs on the CPU that is
fastest just before it (on every CPU when the CLI asks for a process pool),
and is bracketed by a fixed probe kernel on those CPUs.  The probe's
slowdown against REFERENCE_PROBE_S is the host factor.  A run reports the
median raw time divided by the mean factor of its measurements: the time it
would take on the reference host.  Raw seconds stay in the run details.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# probe_kernel() on an idle core of the reference host (Intel Xeon, Python 3.11)
REFERENCE_PROBE_S = 0.012
PROBES_PER_CPU = 5


def probe_kernel() -> float:
    """Seconds for fixed q-products over Fractions, the arithmetic telesum does."""
    start = time.perf_counter()
    q, a = Fraction(3, 7), Fraction(-5, 11)
    for _ in range(150):
        t, p = a, Fraction(1)
        for _ in range(14):
            p *= 1 - t
            t *= q
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))

    def _probe(self, cpus) -> dict[int, float]:
        per_cpu = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu[cpu] = statistics.median(probe_kernel() for _ in range(PROBES_PER_CPU))
        return per_cpu

    def measure(self, jobs: int, fn):
        """fn() on the chosen CPUs (child processes inherit them); returns its
        result and the host's slowdown factor around it."""
        if jobs > 1:
            mask = set(self.cpus)
        else:
            per_cpu = self._probe(self.cpus)
            mask = {min(per_cpu, key=per_cpu.get)}
        try:
            # probe again after choosing: the choice's own probe is biased low
            before = statistics.fmean(self._probe(sorted(mask)).values())
            os.sched_setaffinity(0, mask)
            result = fn()
            after = statistics.fmean(self._probe(sorted(mask)).values())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return result, (before + after) / 2 / REFERENCE_PROBE_S
