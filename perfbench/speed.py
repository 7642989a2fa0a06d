"""The machine's speed, measured while a workload runs.

On a shared host the interpreter's speed swings by up to 2x for seconds
at a time, as other tenants load the same cores; the program's time, its
set-up time and the time of any fixed Python code all swing together.
Uncorrected, the quartiles of a metric over ten runs spread by up to
0.32 of its median, and two sets of runs differed by 40%.

So the runner probes the machine before every PROBE_EVERY seconds of
operations (and before each set-up) and divides each measured time by
the machine's slowdown at that moment, so that a reported time is what
the operation takes at the reference speed.  The probe is two fixed
slices of Python work: one bound by interpreter dispatch, one by a
working set larger than the caches.  Their slowdowns (probe time over
its reference time) differ, as the program's operations differ: over
3-second windows a repeated front-end query tracked the first (slope
1.05) and a derivation and an index build the second (0.9-1.0).  The
machine's slowdown is the geometric mean of the two.  The program's code
never runs in the probe; ``selftest.py`` checks that an operation made
slower, by a fixed loop or by a large heap it keeps and reads, slows the
scaled times by at least 0.8 of the factor it slows the raw ones by.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Seconds of operations between two probes.
PROBE_EVERY = 0.25
#: What the two parts of the probe take at the reference speed (one core
#: of a 2-vCPU Xeon VM in its fast state; CPython 3.11).  Constants, so
#: the scaled times of two runs compare.
REFERENCE_INTERPRETER_S = 0.0025
REFERENCE_MEMORY_S = 0.0075


def probe_interpreter() -> int:
    """Interpreter dispatch over a small working set: dictionary
    counting, string building, grouping, sorting (the front end's kind
    of work: parsing, analysis, planning)."""
    counts: dict = {}
    total = 0
    for i in range(6_000):
        key = i % 500
        counts[key] = counts.get(key, 0) + i
        total += len(str(i))
    rows = [(i, f"k{i % 37}", i * 7 % 1_000) for i in range(1_500)]
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    pairs = sorted({(a, c) for a, _, c in rows if c > 500})
    return total + len(groups) + len(pairs)


def probe_memory() -> int:
    """Tuple rows, hash sets and groups over a working set larger than
    the core's caches (the executors', index builds' and fixpoints' kind
    of work)."""
    rows = [(i, f"k{i % 997}", i * 7 % 10_007) for i in range(12_000)]
    pairs = {(a, c) for a, _, c in rows}
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[1], []).append(row)
    return len(pairs) + len(groups)


class Speed:
    """Probe results of one run; see the module docstring."""

    def __init__(self) -> None:
        #: The machine's slowdown at each probe.
        self.samples: list[float] = []

    def sample(self) -> int:
        """Probe once (without garbage collection); return the sample's
        index, which tags the times measured until the next."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_interpreter()
            middle = perf_counter()
            probe_memory()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        interpreter = (middle - start) / REFERENCE_INTERPRETER_S
        memory = (end - middle) / REFERENCE_MEMORY_S
        self.samples.append((interpreter * memory) ** 0.5)
        return len(self.samples) - 1

    def slowdown(self, index: int) -> float:
        """The machine's slowdown for times tagged ``index``: the median of
        the probes around them (one before, the two bracketing them, one
        after), so one probe hit by an interrupt does not count."""
        return statistics.median(self.samples[max(0, index - 1) : index + 3])

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured under tag ``index``, at the reference speed."""
        return seconds / self.slowdown(index)
