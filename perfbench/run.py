"""End-to-end benchmark of the DBPL system: four seeded user workloads.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 18 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed number of operations in alternating untraced
and traced passes, and reports the per-layer metrics plus the tracing
overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it list
every metric by name with its unit, the input digest and (traced) where
the span dump and rollup were written.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from adhoc import Adhoc
from cold import Cold
from common import percentile, tail_mean
from hot import Hot
from maintain import Maintain
from spans import Tracer
from speed import PROBE_EVERY, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adhoc", "hot", "maintain", "cold")
#: Set-up is timed in two batches, before the measured loop and after it
#: (once the loop's state is released).  A batch sets up at least
#: SETUP_REPEATS times and until SETUP_SECONDS of set-up were timed, at
#: most SETUP_MAX times; ``setup_s`` is the median of both batches.  The
#: machine's speed swings for seconds at a time, so a single batch of a
#: 25 ms set-up saw one speed, and its median moved by half between runs.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 13
#: ``latency_tail_ms`` is the mean of this slowest share of operations.
#: A 1% tail (about 20 operations) swung with the few operations that
#: met a full garbage collection; 5% holds each workload's slow class
#: (derivations, index rebuilds, commits, full scans) and repeats.
TAIL_SHARE = 0.05
#: Failures whose traceback reaches stderr (the rest are only counted).
SHOWN_FAILURES = 3


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cold":
        return Cold(seed, str(workdir))
    return {"adhoc": Adhoc, "hot": Hot, "maintain": Maintain}[name](seed)


class Drive:
    """One pass of operations: latencies per kind, busy time, failures.

    With a :class:`Speed`, the pass probes the machine's speed before
    every PROBE_EVERY seconds of operations, and :meth:`latencies` and
    :meth:`rate` give times at the reference speed.
    """

    def __init__(self, speed: Speed | None = None) -> None:
        self.speed = speed
        #: (kind, seconds, speed sample index) per operation.
        self.timed: list[tuple[str, float, int]] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        #: max_rss_mb() once ``peak_ops`` operations had run.
        self.peak_mb: float | None = None

    def run(self, workload, state, ops, *, seconds=None, tracer=None, op_base=0,
            peak_ops=None) -> None:
        """Run ``ops`` in order; stop once ``seconds`` of busy time passed.

        Only ``workload.execute`` is timed.  The oracle check runs with the
        tracer paused, so no span or counter comes from the oracle.
        """
        speed = self.speed
        tag, probed = -1, self.busy
        if speed is not None:
            tag = speed.sample()
        for i, op in enumerate(ops):
            if seconds is not None and self.busy >= seconds:
                break
            if speed is not None and self.busy - probed >= PROBE_EVERY:
                tag, probed = speed.sample(), self.busy
            kind = op[0]
            if tracer is not None:
                tracer.op = op_base + i
                root = tracer.open("op." + kind)
            error = None
            start = perf_counter()
            try:
                answer = workload.execute(state, op)
            except Exception as exc:  # counted in failed, and shown
                answer, error = None, exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
            self.busy += elapsed
            self.timed.append((kind, elapsed, tag))
            self.attempted += 1
            if error is not None:
                self._fail(f"{kind} raised", op, error)
            elif not workload.check(state, op, answer):
                self._fail(f"{kind} returned a wrong answer", op, None)
            if tracer is not None:
                tracer.active = True
            if self.attempted == peak_ops:
                self.peak_mb = max_rss_mb()
        if speed is not None:
            speed.sample()  # brackets the last operations

    def latencies(self, kind: str | None = None, raw: bool = False) -> list[float]:
        """Seconds per operation (of ``kind``), at the reference speed
        unless ``raw`` or the pass ran without a :class:`Speed`."""
        speed = None if raw else self.speed
        return [
            seconds if speed is None else speed.scale(seconds, tag)
            for k, seconds, tag in self.timed
            if kind in (None, k)
        ]

    def rate(self, raw: bool = False) -> float:
        return _ratio(self.attempted, sum(self.latencies(raw=raw)))

    def _fail(self, what: str, op, error) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"perfbench: {what}: {str(op[:2])[:300]}", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)


def timed_setups(workload, speed: Speed, repeats=SETUP_REPEATS, seconds=SETUP_SECONDS,
                 tracer=None):
    """Set up ``repeats`` times, and more until ``seconds`` of set-up were
    timed (at most SETUP_MAX); return the last state and every set-up's
    ``(seconds, speed sample index)``."""
    timed = []
    state = None
    while len(timed) < repeats or (
        sum(t for t, _ in timed) < seconds and len(timed) < SETUP_MAX
    ):
        if state is not None:
            workload.teardown(state)
            state = None
        gc.collect()
        if tracer is not None:
            tracer.op = f"setup{len(timed)}"
        tag = speed.sample()
        start = perf_counter()
        state = workload.setup()
        timed.append((perf_counter() - start, tag))
    speed.sample()
    return state, timed


def program_counters(workload, state) -> dict:
    """Cumulative counters the program itself keeps, read between ops."""
    session = state["session"]
    info = session.plan_cache.info()
    counters = {
        "plan_hits": info["hits"],
        "plan_misses": info["misses"],
        "plan_evictions": info["evictions"],
        "plan_invalidations": info["invalidations"],
        "fallbacks": sum(session.fallbacks.values()),
        "recomputes": 0,
        "replans": 0,
    }
    for sub in state.get("subs", ()):
        counters["recomputes"] += sub.recomputes
        counters["replans"] += sub.replans
    for rel in session.db.relations.values():
        store = rel.cold_store
        if store is not None:
            for key, value in store.counters.snapshot().items():
                counters[key] = counters.get(key, 0) + value
    counters.update(workload.counters(state))
    return counters


def max_rss_mb() -> float:
    """The process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p(values, q) -> float:
    return percentile(values, q) * 1e3 if values else 0.0


def percentiles(drive: Drive) -> dict:
    out = {}
    for kind, tail in (("read", 0.99), ("write", 0.90), ("derive", 0.90)):
        values = drive.latencies(kind)
        if values:
            out[f"{kind}_p50_ms"] = (_p(values, 0.5), "ms")
            out[f"{kind}_p{round(tail * 100)}_ms"] = (_p(values, tail), "ms")
            out[f"{kind}_samples"] = (len(values), "count")
    return out


def untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    """The end-to-end measurement: set-up, warm-up, then ``seconds`` of ops.

    Times are at the reference speed (see ``speed.py``); the report adds
    their raw values and the machine's median slowdown.
    """
    speed = Speed()
    # The oracle and the inputs are the benchmark's memory: both exist
    # before the baseline, so peak_rss_mb is what set-up and the loop add.
    reference = workload.oracle()
    speed.sample()
    gc.collect()
    baseline_mb = max_rss_mb()
    state, setups = timed_setups(workload, speed)
    state.update(reference)
    workload.prepare_oracle(state)
    warm = Drive()
    warm.run(workload, state, workload.ops[: workload.warmup])
    loop = Drive(speed)
    gc.collect()
    loop.run(workload, state, workload.ops[workload.warmup :], seconds=seconds,
             peak_ops=workload.peak_ops)
    if loop.busy < seconds:
        print(f"perfbench: the operation stream ran out after {loop.busy:.1f} s "
              "of busy time", file=sys.stderr)
    if loop.peak_mb is None:
        print(f"perfbench: peak_rss_mb covers {loop.attempted} operations, "
              f"fewer than {workload.peak_ops}", file=sys.stderr)
    peak_rss_mb = (loop.peak_mb or max_rss_mb()) - baseline_mb
    attempted, failed, guards, extra = workload.finish(state)
    workload.teardown(state)
    state = None  # released before the second batch of set-ups
    state, more = timed_setups(workload, speed)
    workload.teardown(state)
    setups += more
    if not loop.attempted:
        guards.append("no operation ran in the measured loop")

    def timings(raw: bool) -> dict:
        values = loop.latencies(raw=raw)
        setup = [t if raw else speed.scale(t, tag) for t, tag in setups]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (loop.rate(raw), "1/s"),
            "latency_p50_ms": (_p(values, 0.5), "ms"),
            "latency_tail_ms": (tail_mean(values, TAIL_SHARE) * 1e3 if values else 0.0, "ms"),
        }

    metrics = timings(raw=False)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    attempted += warm.attempted + loop.attempted
    failed += warm.failed + loop.failed
    report = dict(metrics)
    report.update(percentiles(loop))
    report["error_rate"] = (_ratio(failed, attempted), "ratio")
    if "storage_amplification" in extra:
        report["storage_amplification"] = (extra.pop("storage_amplification"), "ratio")
    report.update({f"raw_{name}": value for name, value in timings(raw=True).items()})
    report["machine_slowdown"] = (statistics.median(speed.samples), "x")
    info = {"attempted": attempted, "failed": failed, "guards": guards, "extra": extra}
    return metrics, report, [info]


class Pass:
    """One fixed-length pass for ``--trace 1``: set up once, warm up, run
    ``ops``, finish.  With a tracer, spans and counters cover the loop."""

    def __init__(self, workload, ops, tracer=None) -> None:
        speed = Speed()
        if tracer is not None:
            tracer.active = False
        reference = workload.oracle()
        if tracer is not None:
            tracer.active = True
        state, _ = timed_setups(workload, speed, repeats=1, seconds=0, tracer=tracer)
        if tracer is not None:
            tracer.active = False
        state.update(reference)
        workload.prepare_oracle(state)
        if tracer is not None:
            tracer.active = True
        warm = Drive()
        warm.run(workload, state, workload.ops[: workload.warmup], tracer=tracer,
                 op_base=-workload.warmup)
        gc.collect()
        before = program_counters(workload, state)
        if tracer is not None:
            tracer.counts.clear()
            tracer.gc_collections, tracer.gc_pause_s = 0, 0.0
        self.loop = Drive(speed)
        self.loop.run(workload, state, ops, tracer=tracer)
        if tracer is not None:
            tracer.active = False
        attempted, failed, guards, self.report = workload.finish(state)
        # After finish: the hot guard's re-prepare probe is the only
        # plan-cache lookup of that workload.
        after = program_counters(workload, state)
        self.delta = {key: after[key] - before.get(key, 0) for key in after}
        workload.teardown(state)
        self.info = {
            "attempted": attempted + warm.attempted + self.loop.attempted,
            "failed": failed + warm.failed + self.loop.failed,
            "guards": guards,
        }


#: Traced and untraced passes alternate this many times after a first
#: untraced pass; the overhead compares their mean rates at the reference
#: speed.  One pair of raw rates read anywhere from -6% to +18%, as the
#: machine's speed drifted between passes.
OVERHEAD_PAIRS = 2


def traced_pass(workload, ops) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        return Pass(workload, ops, tracer), tracer
    finally:
        tracer.uninstall()


def traced(workload, out_dir: Path, seed: int, digest: str) -> tuple[dict, list]:
    """Per-layer metrics over ``workload.trace_ops`` operations, plus the
    tracing overhead.  The first pass runs untraced and pays the process's
    first-use costs; then traced and untraced passes alternate.  The
    per-layer metrics come from the first traced pass, whose spans are
    written out."""
    count = workload.trace_ops
    loop_ops = workload.ops[workload.warmup : workload.warmup + count]
    passes = [Pass(workload, loop_ops)]
    traced_runs, bases = [], []
    for _ in range(OVERHEAD_PAIRS):
        gc.collect()
        traced_runs.append(traced_pass(workload, loop_ops))
        gc.collect()
        bases.append(Pass(workload, loop_ops))
    passes += [p for p, _ in traced_runs] + bases
    infos = [p.info for p in passes]
    run, tracer = traced_runs[0]
    loop, delta, counts = run.loop, run.delta, tracer.counts
    untraced_rate = statistics.fmean(p.loop.rate() for p in bases)
    traced_rate = statistics.fmean(p.loop.rate() for p, _ in traced_runs)

    layers = tracer.rollup(set(range(count)))
    setup_layers = tracer.rollup({"setup0"})
    reads = len(loop.latencies("read"))

    def L(name, field):
        return layers.get(name, {}).get(field, 0)

    def S(*names):
        return sum(L(name, "self_ms") for name in names)

    vector_attempts = counts.get("lower_branch_vector.attempts", 0)
    lookups = delta["plan_hits"] + delta["plan_misses"]
    metrics = {
        "dbpl.session.calls": (L("dbpl.session", "calls"), "count"),
        "dbpl.session.self_ms": (S("dbpl.session"), "ms"),
        "dbpl.session.fallbacks": (delta["fallbacks"], "count"),
        "dbpl.parser.calls": (L("dbpl.parser", "calls"), "count"),
        "dbpl.parser.self_ms": (S("dbpl.parser"), "ms"),
        "analysis.calls": (L("analysis", "calls"), "count"),
        "analysis.self_ms": (S("analysis"), "ms"),
        "analysis.cache_hit_ratio": (
            1 - _ratio(L("analysis", "calls"), L("dbpl.session", "calls"))
            if L("dbpl.session", "calls") else 0.0, "ratio"),
        "dbpl.serving.self_ms": (S("dbpl.serving"), "ms"),
        "dbpl.serving.plan_cache_hit_ratio": (_ratio(delta["plan_hits"], lookups), "ratio"),
        "dbpl.serving.plan_cache_evictions": (delta["plan_evictions"], "count"),
        "dbpl.serving.plan_cache_invalidations": (delta["plan_invalidations"], "count"),
        "compiler.plans.calls": (L("compiler.plans", "calls"), "count"),
        "compiler.plans.self_ms": (S("compiler.plans"), "ms"),
        "compiler.operators.lower_calls": (
            sum(counts.get(f"{fn}.attempts", 0) for fn in
                ("lower_branch", "lower_branch_columnar", "lower_branch_vector")), "count"),
        "compiler.operators.self_ms": (S("compiler.operators"), "ms"),
        "compiler.operators.vector_decline_ratio": (
            _ratio(counts.get("lower_branch_vector.declines", 0), vector_attempts), "ratio"),
        "compiler.executors.branches": (L("compiler.executors", "spans"), "count"),
        "compiler.executors.rows_out": (counts.get("executors.rows_out", 0), "count"),
        "compiler.executors.self_ms": (S("compiler.executors"), "ms"),
        "relational.index_builds": (L("relational.index", "spans"), "count"),
        "relational.index_self_ms": (S("relational.index"), "ms"),
        "relational.writes": (L("relational.write", "calls"), "count"),
        "relational.write_self_ms": (S("relational.write"), "ms"),
        "relational.vectors.encode_self_ms": (
            S("relational.vectors")
            + setup_layers.get("relational.vectors", {}).get("self_ms", 0), "ms"),
        "compiler.fixpoint.calls": (
            L("compiler.fixpoint", "calls") + L("compiler.fixpoint.compile", "calls")
            + L("compiler.fixpoint.run", "calls"), "count"),
        "compiler.fixpoint.compile_ms": (L("compiler.fixpoint.compile", "wall_ms"), "ms"),
        "compiler.fixpoint.self_ms": (
            S("compiler.fixpoint", "compiler.fixpoint.compile", "compiler.fixpoint.run"), "ms"),
        "compiler.fixpoint.iterations": (counts.get("fixpoint.iterations", 0), "count"),
        "dbpl.subscriptions.self_ms": (S("dbpl.subscriptions"), "ms"),
        "dbpl.subscriptions.events": (delta.get("events", 0), "count"),
        "dbpl.subscriptions.recomputes": (delta["recomputes"], "count"),
        "dbpl.subscriptions.replans": (delta["replans"], "count"),
        "dbpl.subscriptions.pending_max": (run.report.get("pending_max", 0), "count"),
        "relational.storage.scan_self_ms": (S("relational.storage.scan"), "ms"),
        "relational.storage.spill_s": (
            setup_layers.get("relational.storage.spill", {}).get("wall_ms", 0) / 1e3, "s"),
        "relational.storage.open_s": (
            setup_layers.get("relational.storage.open", {}).get("wall_ms", 0) / 1e3, "s"),
        "runtime.gc_collections": (tracer.gc_collections, "count"),
        "runtime.gc_pause_ms": (tracer.gc_pause_s * 1e3, "ms"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_pct": ((1 - _ratio(traced_rate, untraced_rate)) * 100, "%"),
    }
    for key in ("partitions_read", "partitions_pruned", "rows_decoded", "cells_decoded",
                "bytes_read"):
        metrics[f"relational.storage.{key}_per_read"] = (
            _ratio(delta.get(key, 0), reads), "count/read")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    spans_path = out_dir / f"{stem}.spans.jsonl"
    rollup_path = out_dir / f"{stem}.rollup.json"
    tracer.dump(str(spans_path))
    rollup = {
        "workload": workload.name,
        "seed": seed,
        "inputs_sha256": digest,
        "ops": count,
        "overhead": {
            "untraced_ops_per_s": untraced_rate,
            "traced_ops_per_s": traced_rate,
            "untraced_passes_ops_per_s": [p.loop.rate() for p in bases],
            "traced_passes_ops_per_s": [p.loop.rate() for p, _ in traced_runs],
            "untraced_passes_raw_ops_per_s": [p.loop.rate(raw=True) for p in bases],
            "traced_passes_raw_ops_per_s": [p.loop.rate(raw=True) for p, _ in traced_runs],
            "overhead_pct": metrics["trace.overhead_pct"][0],
        },
        "layers": {name: layers[name] for name in sorted(layers)},
        "setup_layers": {name: setup_layers[name] for name in sorted(setup_layers)},
        "program_counters": delta,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    rollup_path.write_text(json.dumps(rollup, indent=1) + "\n", encoding="utf-8")
    print(f"spans  {spans_path.relative_to(ROOT)}")
    print(f"rollup {rollup_path.relative_to(ROOT)}")
    return metrics, infos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        # One client thread on one core: the other core takes the kernel's
        # work, and the process never migrates mid-run (on a two-core box
        # that halved the run-to-run spread of the cold read latency).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        digest = workload.digest()
        print(f"workload {args.workload} seed {args.seed} inputs_sha256 {digest}")
        if args.trace:
            metrics, infos = traced(workload, HERE / "out", args.seed, digest)
        else:
            metrics, report, infos = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(info["attempted"] for info in infos)
    failed = sum(info["failed"] for info in infos)
    guards = [g for info in infos for g in info["guards"]]
    for guard in guards:
        print(f"perfbench: mechanism guard failed: {guard}", file=sys.stderr)
    shown = metrics if args.trace else report
    for name, (value, unit) in shown.items():
        print(f"{name:44s} {value:.6g} {unit}")
    for info in infos:
        for name, value in info.get("extra", {}).items():
            print(f"{name:44s} {value}")
    result = {
        "correct": failed == 0 and not guards,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
