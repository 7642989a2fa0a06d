"""``maintain``: dashboards — about a thousand standing queries kept
current by a writer.

Set-up subscribes 1,000 set formers in the E21 families (salary
filters, department filters, a join with the department tree ``Par``)
and four constructed ranges (``Par{tc()}`` and its left-recursive twin
``Par{tcl()}``, two of each).  The writer then commits one batch per write: six fresh
employees inserted, or six live employees deleted, and every tenth
write a ``Par`` edge inserted (fixpoint resume) or deleted (fixpoint
recompute).  After each write the client drains every change feed (one
read) and three dashboards read a subscription's rows (three reads).
The front end runs only during set-up; the writes pay the
``relational`` commit plus in-commit incremental view maintenance.

Oracle: each subscription's change feed is replayed onto its initial
rows, computed in plain Python from the generated relations; every dashboard read must equal that replay, and at the
end both the rows and the replay must equal a plain-Python
recomputation over the final base relations.
"""

from __future__ import annotations

import random

from common import Workload

SCHEMA = """
TYPE erec = RECORD name, dept: STRING; sal: INTEGER END;
     erel = RELATION name OF erec;
     prec = RECORD parent, child: STRING END;
     prel = RELATION parent, child OF prec;
VAR Emp: erel; Par: prel;

CONSTRUCTOR tc FOR Rel: prel (): prel;
BEGIN EACH p IN Rel: TRUE,
      <p.parent, a.child> OF EACH p IN Rel, EACH a IN Rel{tc()}: p.child = a.parent
END tc;

CONSTRUCTOR tcl FOR Rel: prel (): prel;
BEGIN EACH p IN Rel: TRUE,
      <a.parent, p.child> OF EACH a IN Rel{tcl()}, EACH p IN Rel: a.child = p.parent
END tcl;
"""

EMPLOYEES = 3_000
DEPARTMENTS = 40
SALARIES = 200
STANDING = 1_000
BATCH = 6
DASHBOARD_READS = 3
#: Write cycles generated: fifteen times what an 18 s run consumes today, so
#: a faster program still fills the measured time.
CYCLES = 8_000

SAL = "{EACH e IN Emp: e.sal > %d}"
DEPT = '{EACH e IN Emp: e.dept = "d%d"}'
JOIN = "{<e.name, p.child> OF EACH e IN Emp, EACH p IN Par: e.dept = p.parent AND e.sal > %d}"
FIXPOINTS = ("Par{tc()}", "Par{tcl()}", "Par{tc()}", "Par{tcl()}")


def _closure(edges) -> set:
    by_parent: dict = {}
    for parent, child in edges:
        by_parent.setdefault(parent, []).append(child)
    closure = set()
    for start in by_parent:
        stack = list(by_parent[start])
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(by_parent.get(node, ()))
    return closure


def expected_rows(spec, emp, par) -> frozenset:
    """A plain-Python answer for one subscription spec."""
    family, arg = spec
    if family == "sal":
        return frozenset(row for row in emp if row[2] > arg)
    if family == "dept":
        return frozenset(row for row in emp if row[1] == arg)
    if family == "join":
        children: dict = {}
        for parent, child in par:
            children.setdefault(parent, []).append(child)
        return frozenset(
            (row[0], child)
            for row in emp
            if row[2] > arg
            for child in children.get(row[1], ())
        )
    return frozenset(_closure(par))


class Maintain(Workload):
    name = "maintain"
    warmup = 10 * (1 + 1 + DASHBOARD_READS)
    trace_ops = 150 * (1 + 1 + DASHBOARD_READS)
    peak_ops = 300 * (1 + 1 + DASHBOARD_READS)

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"maintain-{seed}")
        emp = [
            (f"e{i:05d}", f"d{i % DEPARTMENTS}", rng.randrange(SALARIES))
            for i in range(EMPLOYEES)
        ]
        # A fixed binary department tree: closure sizes, and so the cost of
        # fixpoint resumes and recomputes, do not vary with the seed.
        par = [(f"d{(i - 1) // 2}", f"d{i}") for i in range(1, DEPARTMENTS)]
        self.data = {"Emp": emp, "Par": par}
        # The E21 cycle of ten: six salary filters, three department
        # filters, one join; thresholds step deterministically, so every
        # seed keeps the same standing queries and varies only the data.
        self.specs = []
        self.sources = []
        for i in range(STANDING):
            slot = i % 10
            if slot < 6:
                self.specs.append(("sal", (i * 7) % SALARIES))
                self.sources.append(SAL % self.specs[-1][1])
            elif slot < 9:
                self.specs.append(("dept", f"d{i % DEPARTMENTS}"))
                self.sources.append(DEPT % (i % DEPARTMENTS))
            else:
                self.specs.append(("join", (i * 13) % SALARIES))
                self.sources.append(JOIN % self.specs[-1][1])
        for source in FIXPOINTS:
            self.specs.append(("closure", None))
            self.sources.append(source)
        self.ops = self._stream(rng, emp)

    def _stream(self, rng, emp) -> list:
        """Write cycles: write, drain, dashboard reads — with the live
        sets simulated so every delete names rows that exist."""
        live = list(emp)
        leaves: list = []
        ops = []
        next_id = EMPLOYEES
        leaf_id = 0
        for cycle in range(CYCLES):
            slot = cycle % 10
            if slot == 4:
                edge = (f"d{leaf_id * 7 % DEPARTMENTS}", f"n{leaf_id:05d}")
                leaf_id += 1
                leaves.append(edge)
                ops.append(("write", "Par", "insert", (edge,)))
            elif slot == 9:
                ops.append(("write", "Par", "delete", (leaves.pop(0),)))
            elif cycle % 2 == 0:
                rows = tuple(
                    (f"e{next_id + j:05d}", f"d{rng.randrange(DEPARTMENTS)}",
                     rng.randrange(SALARIES))
                    for j in range(BATCH)
                )
                next_id += BATCH
                live.extend(rows)
                ops.append(("write", "Emp", "insert", rows))
            else:
                picks = sorted(rng.sample(range(len(live)), BATCH), reverse=True)
                rows = tuple(live.pop(i) for i in picks)
                ops.append(("write", "Emp", "delete", rows))
            ops.append(("read", "drain"))
            for j in range(DASHBOARD_READS):
                # A stride coprime to the subscription count visits all.
                pick = (cycle * DASHBOARD_READS + j) * 389 % len(self.sources)
                ops.append(("read", "rows", pick))
        return ops

    def inputs(self):
        return (self.data, self.sources, self.ops)

    def setup(self):
        from repro.dbpl import Session

        session = Session()
        session.execute(SCHEMA)
        for rel, rows in self.data.items():
            session.insert(rel, rows)
        subs = [session.subscribe(source) for source in self.sources]
        return {"session": session, "subs": subs}

    def oracle(self) -> dict:
        emp, par = set(self.data["Emp"]), set(self.data["Par"])
        initial: dict = {}
        for spec in self.specs:
            if spec not in initial:
                initial[spec] = expected_rows(spec, emp, par)
        return {
            "replica": [set(initial[spec]) for spec in self.specs],
            "emp": emp,
            "par": par,
        }

    def prepare_oracle(self, state) -> None:
        state["par_deletes"] = 0
        state["events"] = 0
        state["pending_max"] = 0

    def execute(self, state, op):
        if op[0] == "write":
            _, rel, action, rows = op
            relation = state["session"].relation(rel)
            if action == "insert":
                return relation.insert(rows)
            return relation.delete(rows)
        if op[1] == "drain":
            return [list(sub.changes()) for sub in state["subs"]]
        return state["subs"][op[2]].rows()

    def check(self, state, op, answer) -> bool:
        if op[0] == "write":
            _, rel, action, rows = op
            target = state["emp"] if rel == "Emp" else state["par"]
            if action == "insert":
                target.update(rows)
            else:
                target.difference_update(rows)
                if rel == "Par":
                    state["par_deletes"] += 1
            return answer is None
        if op[1] == "rows":
            return answer == state["replica"][op[2]]
        ok = True
        pending = 0
        for replica, events in zip(state["replica"], answer):
            pending += len(events)
            for event in events:
                if event.inserted & replica or not event.deleted <= replica:
                    ok = False
                replica -= event.deleted
                replica |= event.inserted
        state["events"] += pending
        state["pending_max"] = max(state["pending_max"], pending)
        return ok

    def counters(self, state) -> dict:
        return {"events": state["events"]}

    def finish(self, state):
        # The timed loop may stop between a write and its drain.
        drain = ("read", "drain")
        failed = int(not self.check(state, drain, self.execute(state, drain)))
        emp, par = state["emp"], state["par"]
        cached: dict = {}
        for spec, sub, replica in zip(self.specs, state["subs"], state["replica"]):
            if spec not in cached:
                cached[spec] = expected_rows(spec, emp, par)
            expected = cached[spec]
            if sub.rows() != expected or replica != expected:
                failed += 1
        guards = []
        for spec, sub in zip(self.specs, state["subs"]):
            wanted = state["par_deletes"] if spec[0] == "closure" else 0
            if sub.recomputes != wanted:
                guards.append(
                    f"maintain: {sub.source!r} recomputed {sub.recomputes} times, "
                    f"expected {wanted} (recompute only on Par deletes, only "
                    "for constructed ranges)"
                )
                break
        return len(self.specs), failed, guards, {
            "subscriptions": len(self.specs),
            "events": state["events"],
            "pending_max": state["pending_max"],
        }
