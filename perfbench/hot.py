"""``hot``: an application server — prepared statements with rotating
constants over a fact table, plus a trickle of single-row inserts.

Three statements are prepared once and then run through
``PreparedQuery.execute`` with seeded constants: a 3-step join (four
bindings), a selective filter and a projection, in rotation.  Every
20th operation inserts one fresh row into ``Fact`` (20k rows).  The plan cache always
hits, so the time goes to operators, executors, index probes and the
bare copy-on-write commit.  Each insert invalidates the ``Fact`` hash
indexes, so the next read of each index rebuilds it: with two indexed
attributes and 5% writes roughly one read in ten rebuilds, which keeps
the read median among probes and the read p99 among rebuilds, well away
from the boundary between the two.

Oracle: plain-Python dictionaries over the generated rows, updated
after every acknowledged insert.
"""

from __future__ import annotations

import random

from common import Workload

SCHEMA = """
TYPE factrec = RECORD seq, cust, prod, qty: INTEGER; day: STRING END;
     factrel = RELATION seq OF factrec;
     prodrec = RECORD pid, cat: INTEGER; pname: STRING END;
     prodrel = RELATION pid OF prodrec;
     catrec  = RECORD cid: INTEGER; cname, region: STRING END;
     catrel  = RELATION cid OF catrec;
     custrec = RECORD uid: INTEGER; uname, tier: STRING END;
     custrel = RELATION uid OF custrec;
VAR Fact: factrel; Prod: prodrel; Cat: catrel; Cust: custrel;
"""

FACTS = 20_000
CUSTOMERS = 2_000
PRODUCTS = 500
CATEGORIES = 40
#: Every WRITE_EVERY-th operation is an insert (5%); the reads between
#: rotate through the three statements.  A fixed cadence keeps the mix,
#: and so the index rebuilds per write, identical across seeds.
WRITE_EVERY = 20
#: Operations generated: eighteen times what an 18 s run consumes today, so
#: a faster program still fills the measured time.
OPS = 60_000

STATEMENTS = {
    "join": (
        "{<f.seq, p.pname, c.region, u.tier> OF EACH f IN Fact, EACH p IN Prod, "
        "EACH c IN Cat, EACH u IN Cust: f.prod = p.pid AND p.cat = c.cid "
        "AND f.cust = u.uid AND u.uid = 0}"
    ),
    "filter": "{EACH f IN Fact: f.prod = 0 AND f.qty > 0}",
    "project": "{<f.day, f.qty> OF EACH f IN Fact: f.cust = 0}",
}


def _fact(rng: random.Random, seq: int) -> tuple:
    return (
        seq,
        rng.randrange(CUSTOMERS),
        rng.randrange(PRODUCTS),
        rng.randrange(1, 50),
        f"d{rng.randrange(365):03d}",
    )


class Hot(Workload):
    name = "hot"
    warmup = 30
    trace_ops = 1_500
    peak_ops = 2_000

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"hot-{seed}")
        self.data = {
            "Fact": [_fact(rng, i) for i in range(FACTS)],
            "Prod": [(i, rng.randrange(CATEGORIES), f"n{i}") for i in range(PRODUCTS)],
            "Cat": [(i, f"c{i}", f"r{i % 6}") for i in range(CATEGORIES)],
            "Cust": [(i, f"u{i}", f"t{rng.randrange(4)}") for i in range(CUSTOMERS)],
        }
        self.ops = []
        seq = FACTS
        names = sorted(STATEMENTS)
        for i in range(OPS):
            if i % WRITE_EVERY == WRITE_EVERY - 1:
                self.ops.append(("write", _fact(rng, seq)))
                seq += 1
                continue
            name = names[(i - i // WRITE_EVERY) % len(names)]
            if name == "filter":
                args = (rng.randrange(PRODUCTS), rng.randrange(50))
            else:
                args = (rng.randrange(CUSTOMERS),)
            self.ops.append(("read", name, args))

    def inputs(self):
        return (self.data, self.ops)

    def setup(self):
        from repro.dbpl import Session

        session = Session()
        session.execute(SCHEMA)
        for rel, rows in self.data.items():
            session.insert(rel, rows)
        prepared = {name: session.prepare(src) for name, src in STATEMENTS.items()}
        return {"session": session, "prepared": prepared}

    def oracle(self) -> dict:
        by_cust: dict = {}
        by_prod: dict = {}
        for row in self.data["Fact"]:
            by_cust.setdefault(row[1], []).append(row)
            by_prod.setdefault(row[2], []).append(row)
        return {
            "by_cust": by_cust,
            "by_prod": by_prod,
            "facts": len(self.data["Fact"]),
            "prod": {row[0]: row for row in self.data["Prod"]},
            "cat": {row[0]: row for row in self.data["Cat"]},
            "cust": {row[0]: row for row in self.data["Cust"]},
        }

    def prepare_oracle(self, state) -> None:
        state["reads"] = 0
        cache = state["session"].plan_cache
        state["cache_before"] = (cache.misses, cache.invalidations)
        state["executions_before"] = self._executions(state)

    @staticmethod
    def _executions(state) -> int:
        return sum(p.executions for p in state["prepared"].values())

    def execute(self, state, op):
        if op[0] == "write":
            return state["session"].insert("Fact", [op[1]])
        return state["prepared"][op[1]].execute(*op[2])

    def check(self, state, op, answer) -> bool:
        if op[0] == "write":
            row = op[1]
            state["by_cust"].setdefault(row[1], []).append(row)
            state["by_prod"].setdefault(row[2], []).append(row)
            state["facts"] += 1
            return answer is None
        state["reads"] += 1
        name, args = op[1], op[2]
        if name == "filter":
            expected = {r for r in state["by_prod"].get(args[0], ()) if r[3] > args[1]}
        elif name == "project":
            expected = {(r[4], r[3]) for r in state["by_cust"].get(args[0], ())}
        else:
            expected = set()
            tier = state["cust"][args[0]][2]
            for r in state["by_cust"].get(args[0], ()):
                prod = state["prod"][r[2]]
                expected.add((r[0], prod[2], state["cat"][prod[1]][2], tier))
        return answer == expected

    def finish(self, state):
        session = state["session"]
        cache = session.plan_cache
        hits = cache.hits
        for src in STATEMENTS.values():
            session.prepare(src)
        guards = []
        misses = cache.misses - state["cache_before"][0]
        invalidations = cache.invalidations - state["cache_before"][1]
        if cache.hits - hits != len(STATEMENTS) or misses or invalidations:
            guards.append(
                f"hot: plan cache left the always-hit path (misses {misses}, "
                f"invalidations {invalidations} after warm-up)"
            )
        executions = self._executions(state) - state["executions_before"]
        if executions != state["reads"]:
            guards.append(
                f"hot: {state['reads']} reads ran {executions} prepared executions"
            )
        failed = int(len(session.relation("Fact")) != state["facts"])
        return 1, failed, guards, {}
