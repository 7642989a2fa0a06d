"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Four checks, each printed as ``ok``/``FAIL``:

* inputs: one seed generates byte-identical inputs twice (same SHA-256),
  and another seed generates different ones;
* oracle: a run whose program answers are corrupted once is counted as
  one failure, so a wrong answer cannot pass unnoticed (the run reports
  the corrupted operation on standard error, as any failure);
* counts: two traced runs (``run.py --trace 1``) with one seed report
  the same value for every count-type per-layer metric;
* scaling: a known extra cost injected into every operation of ``cold``
  (a fixed pure-Python loop, or a large heap the operation keeps, grows
  and reads) slows ``ops_per_s`` and the median latency at the reference
  speed by no less than 0.8 of the factor it slows the raw values by, so
  the speed probe (``speed.py``) does not hide a slower program.  Both
  factors are printed.

Exits 0 when every check passed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs the paths above)

#: Per-layer units whose values are counts of work, which must repeat.
COUNT_UNITS = ("count", "ratio", "count/read")
#: Counts the interpreter decides, not the program's inputs.
NOT_DETERMINISTIC = ("runtime.gc_collections",)
CORRUPT = ("__corrupt__",)
#: The scaling check alternates plain and injected passes of this much
#: busy time, SCALING_PASSES of each, so that a change of machine speed
#: falls on both alike (the check needs the machine to itself).
SCALING_PASSES = 10
SCALING_SECONDS = 0.4
#: The scaled factor may fall short of the raw one by this share at most.
#: It may exceed it: with the heap variant it did by up to 40%, as the
#: probe ran faster in the passes that kept the heap (see README.md).
SCALING_SHORTFALL = 0.2


class CorruptOnce:
    """A workload proxy whose ``at``-th set-valued answer is wrong."""

    def __init__(self, workload, at: int) -> None:
        self.workload = workload
        self.at = at
        self.seen = 0

    def execute(self, state, op):
        answer = self.workload.execute(state, op)
        if isinstance(answer, (set, frozenset)):
            self.seen += 1
            if self.seen == self.at:
                return set(answer) ^ {CORRUPT}
        return answer

    def __getattr__(self, name):
        return getattr(self.workload, name)


class Injected:
    """A workload proxy whose every operation pays an extra cost.

    ``loop``: a fixed pure-Python loop.  ``heap``: the proxy retains a
    heap of container objects larger than the core's caches, allocated
    when a pass begins; every operation grows it and reads entries
    scattered across it.
    """

    def __init__(self, workload, kind: str) -> None:
        self.workload = workload
        self.kind = kind
        self.heap: list = []
        self.offset = 0

    def begin(self) -> None:
        if self.kind == "heap":
            self.heap = [[i, str(i)] for i in range(300_000)]

    def end(self) -> None:
        self.heap = []

    def execute(self, state, op):
        answer = self.workload.execute(state, op)
        if self.kind == "loop":
            total = 0
            for i in range(20_000):
                total += i * i
        else:
            heap = self.heap
            heap.extend([i, str(i)] for i in range(100))
            self.offset = (self.offset + 1) % 97
            total = 0
            for i in range(self.offset, len(heap), 97):
                total += len(heap[i][1])
        return answer

    def __getattr__(self, name):
        return getattr(self.workload, name)


def check_inputs(name: str, workdir: Path) -> bool:
    first = run.make_workload(name, 7, workdir).digest()
    again = run.make_workload(name, 7, workdir).digest()
    other = run.make_workload(name, 8, workdir).digest()
    return first == again != other


def check_oracle(name: str, workdir: Path) -> bool:
    workload = run.make_workload(name, 7, workdir)
    state = workload.setup()
    state.update(workload.oracle())
    workload.prepare_oracle(state)
    proxy = CorruptOnce(workload, at=3)
    drive = run.Drive()
    ops = workload.ops[: workload.warmup + 40]
    drive.run(proxy, state, ops)
    _, failed, _, _ = workload.finish(state)
    workload.teardown(state)
    return proxy.seen >= proxy.at and drive.failed + failed == 1


def traced_counts(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {
        key: entry["value"]
        for key, entry in metrics.items()
        if entry["unit"] in COUNT_UNITS and key not in NOT_DETERMINISTIC
    }


def check_counts(name: str) -> bool:
    first, second = traced_counts(name, 11), traced_counts(name, 11)
    differing = sorted(k for k in first if first[k] != second.get(k))
    if differing:
        print(f"  {name}: counts differ: {differing}")
    return not differing and first.keys() == second.keys()


def _factors(plain: list, injected: list, raw: bool) -> tuple[float, float]:
    """How much slower the injected passes ran: (ops_per_s, p50) factors."""

    def pooled(drives):
        latencies = [t for d in drives for t in d.latencies(raw=raw)]
        rate = sum(d.attempted for d in drives) / sum(latencies)
        return rate, statistics.median(latencies)

    (rate0, p0), (rate1, p1) = pooled(plain), pooled(injected)
    return rate0 / rate1, p1 / p0


def check_scaling(workdir: Path) -> bool:
    workload = run.make_workload("cold", 7, workdir)
    state = workload.setup()
    state.update(workload.oracle())
    workload.prepare_oracle(state)
    cursor = workload.warmup
    run.Drive().run(workload, state, workload.ops[:cursor])
    passed = True
    for kind in ("loop", "heap"):
        proxy = Injected(workload, kind)
        drives: dict = {False: [], True: []}
        for _ in range(SCALING_PASSES):
            for inject in (False, True):
                if inject:
                    proxy.begin()
                drive = run.Drive(run.Speed())
                drive.run(proxy if inject else workload, state, workload.ops[cursor:],
                          seconds=SCALING_SECONDS)
                proxy.end()
                cursor += drive.attempted
                drives[inject].append(drive)
        raw = _factors(drives[False], drives[True], raw=True)
        scaled = _factors(drives[False], drives[True], raw=False)
        failed = sum(d.failed for ds in drives.values() for d in ds)
        ok = failed == 0 and all(
            r > 1.05 and s >= r * (1 - SCALING_SHORTFALL) for r, s in zip(raw, scaled)
        )
        print(f"  {kind}: slower by ops_per_s {raw[0]:.3f} raw, {scaled[0]:.3f} scaled; "
              f"p50 {raw[1]:.3f} raw, {scaled[1]:.3f} scaled")
        passed &= ok
    workload.teardown(state)
    return passed


def main() -> int:
    workdir = HERE / "_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    passed = True
    for name in run.WORKLOADS:
        for label, check, extra in (
            ("inputs", check_inputs, (workdir,)),
            ("oracle", check_oracle, (workdir,)),
            ("counts", check_counts, ()),
        ):
            ok = check(name, *extra)
            passed &= ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} {label}", flush=True)
    ok = check_scaling(workdir)
    passed &= ok
    print(f"{'ok  ' if ok else 'FAIL'} cold scaling", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
