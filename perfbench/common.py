"""Shared pieces of the four workloads: the workload interface, input
digests, percentiles and the byte counts behind storage amplification."""

from __future__ import annotations

import hashlib
import math


class Workload:
    """One seeded workload, driven by ``run.py``.

    A subclass generates every input in ``__init__`` from the seed alone
    (``self.ops`` is the full operation stream, consumed from the front)
    and implements:

    * ``setup()`` — the program-side build a user waits for before the
      first operation; ``run.py`` times it for ``setup_s``.
    * ``oracle()`` — untimed: the independent reference, built from the
      generated inputs alone; ``run.py`` builds it before the first
      set-up, so that ``peak_rss_mb`` leaves it out, and merges it into
      the state of the run it checks.
    * ``prepare_oracle(state)`` — untimed: what the oracle needs from a
      state (the program's counters before the loop, say).
    * ``execute(state, op)`` — run one operation through the public API
      and return its answer; ``run.py`` times exactly this call.
    * ``check(state, op, answer)`` — untimed: True when the answer is right.
    * ``counters(state)`` — cumulative client-side counts, for tracing.
    * ``finish(state)`` — untimed end-of-run checks:
      ``(attempted, failed, guard_failures, report)``.
    * ``teardown(state)`` — release what ``setup`` made.

    Each op is a tuple whose first item is its kind: ``read``, ``write``
    or ``derive``.
    """

    name = "?"
    #: Operations run before the measured loop (lazy compilation, first
    #: index builds); they are checked but left out of the metrics.
    warmup = 0
    #: Operation count of a traced run (fixed, so counts repeat exactly).
    trace_ops = 0
    #: ``peak_rss_mb`` is read after this many measured operations, about
    #: two thirds of what the slowest run of 18 s completed: the program's
    #: memory grows with the operations it has run, and how many fit in
    #: the measured time depends on the machine's speed.
    peak_ops = 0
    ops: list

    def inputs(self) -> object:
        """Everything the generator produced, for the input digest."""
        raise NotImplementedError

    def digest(self) -> str:
        return hashlib.sha256(repr(self.inputs()).encode()).hexdigest()

    def setup(self):
        raise NotImplementedError

    def oracle(self) -> dict:
        return {}

    def prepare_oracle(self, state) -> None:
        pass

    def execute(self, state, op):
        raise NotImplementedError

    def check(self, state, op, answer) -> bool:
        raise NotImplementedError

    def counters(self, state) -> dict:
        """Cumulative counts the workload's client observed (run.py reports
        their change over a traced loop)."""
        return {}

    def finish(self, state) -> tuple[int, int, list[str], dict]:
        return 0, 0, [], {}

    def teardown(self, state) -> None:
        pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_mean(values: list[float], share: float) -> float:
    """Mean of the slowest ``share`` of a sample (at least one value).

    Unlike a single high percentile, it does not jump when the rank it
    would read falls in the gap between two clusters of slow operations
    (say, index rebuilds and commits that meet a full collection).
    """
    ordered = sorted(values)
    tail = ordered[-max(1, round(share * len(ordered))):]
    return sum(tail) / len(tail)


def raw_bytes(rows) -> int:
    """The user's bytes in ``rows``: UTF-8 length of strings, 8 per integer."""
    total = 0
    for row in rows:
        for value in row:
            total += len(value.encode()) if isinstance(value, str) else 8
    return total
