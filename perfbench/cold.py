"""``cold``: cold-start reporting — spill, reopen, then read-only scans.

Set-up builds an orders table (40k rows) and a customer table (3k),
spills the database into columnar partitions of 1,000 rows and reopens
it with ``open_database``.  The loop then runs seeded reads: narrow
key-range scans, single-column projections over narrow key ranges,
projections over wide key ranges with a value filter, customer ranges,
and one full single-column scan in 33 reads.  Every read is a
one-binding range or projection, so the relations stay cold and every
read decodes pages through the pushdown readers; this is the only
workload where ``relational.storage`` does the work.

Oracle: plain Python over the generated rows (bisection on the sorted
keys).
"""

from __future__ import annotations

import bisect
import os
import random
import shutil

from common import Workload, raw_bytes

SCHEMA = """
TYPE orec = RECORD oid: STRING; cust, amount: INTEGER; region, day: STRING END;
     orel = RELATION oid OF orec;
     crec = RECORD cid: INTEGER; cname, tier: STRING END;
     crel = RELATION cid OF crec;
VAR Orders: orel; Cust: crel;
"""

ORDERS = 40_000
CUSTOMERS = 3_000
PER_PARTITION = 1_000
#: Operations generated: nine times what an 18 s run consumes today, so
#: a faster program still fills the measured time.
OPS = 40_000
#: One cycle of read kinds, repeated: 1 full scan, 5 customer ranges,
#: 13 key-range scans, 9 projections and 5 filtered projections in 33
#: reads.  A fixed cadence keeps the mix identical across seeds.
CYCLE = (
    ("full",) + ("cust",) * 5 + ("keys", "project", "keys", "filter") * 5
    + ("keys", "project") * 3 + ("project",)
)
FULL_SCANS = (("Orders", "region"), ("Cust", "tier"), ("Orders", "day"))
#: Widest key range of a selective read (most touch one partition, so
#: the read median sits inside the one-partition cluster, not on its
#: edge) and of a filtered projection (one to four partitions).
NARROW = 300
WIDE = 3_000
ORDER_COLS = {"oid": 0, "cust": 1, "amount": 2, "region": 3, "day": 4}
CUST_COLS = {"cid": 0, "cname": 1, "tier": 2}


class Cold(Workload):
    name = "cold"
    warmup = 20
    trace_ops = 1_500
    peak_ops = 2_500

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"cold-{seed}")
        self.workdir = workdir
        self.data = {
            "Orders": [
                (f"o{i:06d}", rng.randrange(CUSTOMERS), rng.randrange(10_000),
                 f"r{rng.randrange(8)}", f"d{rng.randrange(365):03d}")
                for i in range(ORDERS)
            ],
            "Cust": [(i, f"n{i}", f"t{rng.randrange(4)}") for i in range(CUSTOMERS)],
        }
        self.ops = [self._draw(rng, CYCLE[i % len(CYCLE)], i // len(CYCLE))
                    for i in range(OPS)]
        self._spills = 0

    @staticmethod
    def _draw(rng: random.Random, kind: str, cycle: int) -> tuple:
        if kind == "full":
            rel, col = FULL_SCANS[cycle % len(FULL_SCANS)]
            var = rel[0].lower()
            return ("read", f"{{<{var}.{col}> OF EACH {var} IN {rel}: TRUE}}",
                    ("full", rel, col))
        if kind == "cust":
            lo = rng.randrange(CUSTOMERS - NARROW)
            hi = lo + rng.randint(20, NARROW)
            col = rng.choice((None, "cname", "tier"))
            head = f"<c.{col}> OF " if col else ""
            return ("read", f"{{{head}EACH c IN Cust: c.cid >= {lo} AND c.cid < {hi}}}",
                    ("cust", lo, hi, col))
        width = WIDE if kind == "filter" else NARROW
        lo = rng.randrange(ORDERS - width)
        hi = lo + rng.randint(20, width)
        keys = f'o.oid >= "o{lo:06d}" AND o.oid < "o{hi:06d}"'
        if kind == "keys":
            return ("read", f"{{EACH o IN Orders: {keys}}}", ("orders", lo, hi, None, None))
        col = rng.choice(("cust", "amount", "region", "day"))
        if kind == "project":
            return ("read", f"{{<o.{col}> OF EACH o IN Orders: {keys}}}",
                    ("orders", lo, hi, col, None))
        floor = rng.randrange(10_000)
        return ("read", f"{{<o.{col}> OF EACH o IN Orders: {keys} AND o.amount > {floor}}}",
                ("orders", lo, hi, col, floor))

    def inputs(self):
        return (self.data, self.ops)

    def setup(self):
        from repro import relational
        from repro.dbpl import Session

        path = os.path.join(self.workdir, f"spill-{self._spills}")
        self._spills += 1
        shutil.rmtree(path, ignore_errors=True)
        warm = Session()
        warm.execute(SCHEMA)
        for rel, rows in self.data.items():
            warm.insert(rel, rows)
        warm.db.spill(path, rows_per_partition=PER_PARTITION)
        return {"session": Session(relational.open_database(path)), "path": path}

    def oracle(self) -> dict:
        return {
            "orders": self.data["Orders"],
            "keys": [row[0] for row in self.data["Orders"]],
            "cust": self.data["Cust"],
        }

    def prepare_oracle(self, state) -> None:
        # Spilled files stay until run.py removes the work directory at
        # exit, and the page cache is flushed here: neither writeback nor
        # file deletion (a discard on this kind of mount) may overlap the
        # measured reads.
        os.sync()
        db = state["session"].db
        state["counters_before"] = {
            name: rel.cold_store.counters.snapshot() for name, rel in db.relations.items()
        }

    def execute(self, state, op):
        return state["session"].query(op[1])

    def check(self, state, op, answer) -> bool:
        spec = op[2]
        if spec[0] == "full":
            rows = state["orders"] if spec[1] == "Orders" else state["cust"]
            cols = ORDER_COLS if spec[1] == "Orders" else CUST_COLS
            pos = cols[spec[2]]
            return answer == {(row[pos],) for row in rows}
        if spec[0] == "cust":
            _, lo, hi, col = spec
            rows = state["cust"][lo:hi]
            if col is None:
                return answer == set(rows)
            pos = CUST_COLS[col]
            return answer == {(row[pos],) for row in rows}
        _, lo, hi, col, floor = spec
        keys = state["keys"]
        rows = state["orders"][
            bisect.bisect_left(keys, f"o{lo:06d}"): bisect.bisect_left(keys, f"o{hi:06d}")
        ]
        if floor is not None:
            rows = [row for row in rows if row[2] > floor]
        if col is None:
            return answer == set(rows)
        pos = ORDER_COLS[col]
        return answer == {(row[pos],) for row in rows}

    def finish(self, state):
        db = state["session"].db
        guards = [
            f"cold: {name} materialized; reads no longer decode pages"
            for name, rel in sorted(db.relations.items())
            if not rel.is_cold
        ]
        stored = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(state["path"])
            for name in names
        )
        user = sum(raw_bytes(rows) for rows in self.data.values())
        report = {"storage_amplification": stored / user}
        if not guards:
            for key in ("partitions_read", "partitions_pruned", "rows_decoded",
                        "cells_decoded", "bytes_read"):
                report[key] = sum(
                    rel.cold_store.counters.snapshot()[key]
                    - state["counters_before"][name][key]
                    for name, rel in db.relations.items()
                )
        return 0, 0, guards, report
