"""In-memory span tracing around the program's layer boundaries.

The program itself records no spans, so this module wraps the public
functions of each layer from the outside: a :class:`Tracer` replaces a
function (in every ``repro`` module that imported it by name) or a class
attribute with a wrapper that records ``[name, start, end, parent, op]``
and restores the originals on :meth:`Tracer.uninstall`.  A span's self
time is its duration minus the durations of its direct children; spans
of one operation share the op id the runner sets on :attr:`Tracer.op`.

The layer a span belongs to is its name: ``compiler.plans`` for
``compile_query``/``compile_branch``, and so on (see
:func:`install_layer_patches`).
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Spans of one layer that nest inside each other (compile_query calling
#: compile_branch) are one entry into the layer: ``calls`` counts spans
#: whose parent is in another layer.  Families group span names whose
#: nesting counts as one layer entry.
FAMILY = {
    "compiler.fixpoint.compile": "compiler.fixpoint",
    "compiler.fixpoint.run": "compiler.fixpoint",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Op id stamped on new spans; the runner sets it per operation.
        self.op: object = "setup"
        #: Wrappers record only while active (oracle checks pause it).
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.origin = perf_counter()

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording one ``name`` span per call.

        ``before(args, kwargs)`` returns a token handed to
        ``after(token, result, args, kwargs)``, which runs once the span
        is closed; both only run while the tracer is active.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(token, result, args, kwargs)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` everywhere a ``repro`` module bound it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap a method (plain or classmethod) defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(original.__func__, name, **hooks))
        else:
            wrapper = self.wrap(original, name, **hooks)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_start

    def install(self) -> None:
        install_layer_patches(self)
        gc.callbacks.append(self._on_gc)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def rollup(self, ops: set) -> dict[str, dict]:
        """Per span name, over the spans whose op id is in ``ops``:
        ``spans``; ``calls``, the entries into the layer (parent in another
        family); ``self_ms``; and ``wall_ms``, the duration of the spans
        not nested in a span of the same name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"spans": 0, "calls": 0, "self_ms": 0.0, "wall_ms": 0.0}
        )
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            entry = out[name]
            entry["spans"] += 1
            entry["self_ms"] += (end - start - child_time[i]) * 1e3
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name != name:
                entry["wall_ms"] += (end - start) * 1e3
            if FAMILY.get(parent_name, parent_name) != FAMILY.get(name, name):
                entry["calls"] += 1
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in µs from tracer start)."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def _declined(token, result, args, kwargs, *, tracer, key):
    tracer.counts[key + ".attempts"] += 1
    if result is None:
        tracer.counts[key + ".declines"] += 1


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.analysis import checks
    from repro.compiler import executors, fixpoint, operators, plans
    from repro.dbpl import parser, serving, session, subscriptions
    from repro.relational import indexes, relation, storage, vectors

    counts = tracer.counts
    for fn in ("query", "prepare", "subscribe"):
        tracer.patch_method(session.Session, fn, "dbpl.session")
    tracer.patch_function(parser, "parse_expression", "dbpl.parser")
    tracer.patch_function(checks, "analyze_query", "analysis")

    tracer.patch_function(serving, "parameterize", "dbpl.serving")
    tracer.patch_method(serving.PlanCache, "get", "dbpl.serving")
    tracer.patch_method(serving.PlanCache, "put", "dbpl.serving")
    tracer.patch_method(serving.PreparedPlan, "run", "dbpl.serving")

    tracer.patch_function(plans, "compile_query", "compiler.plans")
    tracer.patch_function(plans, "compile_branch", "compiler.plans")

    for fn in ("lower_branch", "lower_branch_columnar", "lower_branch_vector"):
        tracer.patch_function(
            operators, fn, "compiler.operators",
            after=functools.partial(_declined, tracer=tracer, key=fn),
        )

    def rows_before(args, kwargs):
        return len(args[3])

    def rows_after(before, result, args, kwargs):
        counts["executors.rows_out"] += len(args[3]) - before

    classes = {
        cls
        for name in executors.executor_names()
        for cls in type(executors.get_backend(name)).__mro__
        if "execute_branch" in cls.__dict__ and cls is not executors.ExecutorBackend
    }
    for cls in classes:
        tracer.patch_method(
            cls, "execute_branch", "compiler.executors",
            before=rows_before, after=rows_after,
        )

    tracer.patch_method(indexes.HashIndex, "__init__", "relational.index")
    for fn in ("insert", "delete", "assign"):
        tracer.patch_method(relation.Relation, fn, "relational.write")
    tracer.patch_method(vectors.EncodedTable, "from_rows", "relational.vectors")
    tracer.patch_method(vectors.EncodedTable, "extended", "relational.vectors")
    tracer.patch_method(vectors.Dictionary, "encode_batch", "relational.vectors")

    def iterations(token, result, args, kwargs):
        # Every loop ends in _converge, which leaves its iteration count on
        # the program's plan_stats: a derivation's run, and a subscription's
        # resume (Par insert) or run (Par delete), all count here.
        counts["fixpoint.iterations"] += args[0].plan_stats.iterations

    tracer.patch_function(fixpoint, "compile_fixpoint", "compiler.fixpoint.compile")
    tracer.patch_function(fixpoint, "construct_compiled", "compiler.fixpoint")
    for fn in ("run", "resume"):
        tracer.patch_method(
            fixpoint.CompiledFixpoint, fn, "compiler.fixpoint.run", after=iterations
        )

    tracer.patch_method(subscriptions.SubscriptionRegistry, "emit", "dbpl.subscriptions")

    for fn in ("scan", "encoded_scan", "scan_partition_groups"):
        tracer.patch_method(storage.RelationStore, fn, "relational.storage.scan")
    tracer.patch_function(storage, "spill_database", "relational.storage.spill")
    tracer.patch_function(storage, "open_database", "relational.storage.open")
