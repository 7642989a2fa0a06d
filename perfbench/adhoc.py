"""``adhoc``: analyst traffic — seeded set formers of ever-new shapes plus
recursive derivations over a parts graph.

Six in seven operations are ``Session.query`` set formers drawn over a
4-relation schema (1-4 bindings joined on key-like attributes, 0-3
predicates, varying targets).  The drawn shapes far outnumber the plan
cache (128) and the analysis cache (256), so nearly every read pays the
whole front end: parse, analyze, parameterize, plan, lower.  Every
seventh operation is a derivation — ``Infront{tc()}`` and the mutually recursive
``ahead``/``above`` constructors of ``examples/dbpl_tour.py`` — over a
graph of a few thousand edges clustered into small DAGs.

Oracle: single-binding set formers without quantifiers run on the
reference evaluator (``mode="interpreted"``) of a separate session over
the same rows; every other answer is recomputed here in plain Python.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from common import Workload

SCHEMA = """
TYPE partrec    = RECORD pid, kind, supp: STRING; weight: INTEGER END;
     partrel    = RELATION pid OF partrec;
     supprec    = RECORD sid, city: STRING; rating: INTEGER END;
     supprel    = RELATION sid OF supprec;
     infrontrec = RECORD front, back: STRING END;
     infrontrel = RELATION ... OF infrontrec;
     ontoprec   = RECORD top, base: STRING END;
     ontoprel   = RELATION ... OF ontoprec;
     aheadrec   = RECORD head, tail: STRING END;
     aheadrel   = RELATION ... OF aheadrec;
     aboverec   = RECORD high, low: STRING END;
     aboverel   = RELATION ... OF aboverec;

VAR Part: partrel; Supp: supprel; Infront: infrontrel; Ontop: ontoprel;

CONSTRUCTOR tc FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, t.tail> OF EACH r IN Rel, EACH t IN Rel{tc()}: r.back = t.head
END tc;

CONSTRUCTOR ahead FOR Rel: infrontrel (Ontop: ontoprel): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <r.front, ah.tail> OF EACH r IN Rel,
           EACH ah IN Rel{ahead(Ontop)}: r.back = ah.head,
      <r.front, ab.low> OF EACH r IN Rel,
           EACH ab IN Ontop{above(Rel)}: r.back = ab.high
END ahead;

CONSTRUCTOR above FOR Rel: ontoprel (Infront: infrontrel): aboverel;
BEGIN EACH r IN Rel: TRUE,
      <r.top, ab.low> OF EACH r IN Rel,
           EACH ab IN Rel{above(Infront)}: r.base = ab.high,
      <r.top, ah.tail> OF EACH r IN Rel,
           EACH ah IN Infront{ahead(Rel)}: r.base = ah.head
END above;
"""

PARTS = 2_000
SUPPLIERS = 2_000
INFRONT_EDGES = 2_000
ONTOP_EDGES = 1_500
#: Parts per graph cluster; edges stay inside a cluster and point from a
#: lower to a higher member, so every closure is a bounded DAG closure.
CLUSTER = 8
KINDS = 12
CITIES = 30
#: Every DERIVE_EVERY-th operation is a derivation (~14%), cycling
#: through DERIVES; a fixed cadence keeps the mix identical across seeds.
DERIVE_EVERY = 7
#: Operations generated: ten times what an 18 s run consumes today, so
#: a faster program still fills the measured time.
OPS = 24_000

#: attribute -> (position, domain) per relation, in record order.
ATTRS = {
    "Part": {"pid": (0, "pid"), "kind": (1, "kind"), "supp": (2, "sid"), "weight": (3, "weight")},
    "Supp": {"sid": (0, "sid"), "city": (1, "city"), "rating": (2, "rating")},
    "Infront": {"front": (0, "pid"), "back": (1, "pid")},
    "Ontop": {"top": (0, "pid"), "base": (1, "pid")},
}
JOIN_DOMAINS = ("pid", "sid")
DERIVES = ("Infront{tc()}", "Infront{ahead(Ontop)}", "Ontop{above(Infront)}")
OPS_BY_DOMAIN = {
    "weight": ("<", "<=", ">", ">=", "="),
    "rating": ("<", "<=", ">", ">=", "=", "<>"),
    "kind": ("=", "<>"),
    "city": ("=", "<>"),
    "pid": ("=", ">=", "<"),
    "sid": ("=", ">=", "<"),
}
#: Membership tests the compiler runs as semi-joins: binding domain ->
#: (relation, attribute) whose values the quantifier ranges over.
SOME_TARGETS = {
    "pid": (("Infront", "front"), ("Infront", "back"), ("Ontop", "top"), ("Ontop", "base")),
    "sid": (("Supp", "sid"),),
}


#: Range comparisons (<, <=, >, >=) take constants from the interior of
#: their domain, EDGE values in from either end.  At the edge the planner
#: misprices them: ``v.rating >= 9`` (the highest rating, a tenth of the
#: rows) and ``v.weight >= 998`` are estimated at 0 rows, and the cost
#: model then orders cross products right after that binding as if they
#: were free.  A 4-binding query with ``v3.rating >= 9`` over Supp, Part,
#: Supp, Supp ran out of memory (seed 102, operation 480 before this rule);
#: one such operation outlasts a run, so the benchmark cannot carry it.
RANGE_OPS = ("<", "<=", ">", ">=")
EDGE = {"weight": 20, "rating": 1, "pid": 40, "sid": 40}


def _const(rng: random.Random, domain: str, op: str):
    edge = EDGE.get(domain, 0) if op in RANGE_OPS else 0
    if domain == "weight":
        return rng.randrange(edge, 1_000 - edge)
    if domain == "rating":
        return rng.randrange(edge, 10 - edge)
    if domain == "kind":
        return f"k{rng.randrange(KINDS)}"
    if domain == "city":
        return f"c{rng.randrange(CITIES)}"
    if domain == "pid":
        return f"p{rng.randrange(edge, PARTS - edge):05d}"
    return f"s{rng.randrange(edge, SUPPLIERS - edge):04d}"


def _literal(value) -> str:
    return f'"{value}"' if isinstance(value, str) else str(value)


@dataclass(frozen=True)
class Query:
    """One drawn set former.

    ``bindings`` are relation names (variable ``v<i>`` ranges over the
    i-th); ``joins[j-1]`` links binding ``j`` to an earlier one as
    ``(i, attr_i, attr_j)``; ``preds`` are atoms (see :func:`_render_atom`);
    ``targets`` are ``(binding, attr)`` pairs, or empty for whole rows.
    """

    bindings: tuple
    joins: tuple
    preds: tuple
    targets: tuple

    def render(self, const=_literal) -> str:
        head = ""
        if self.targets:
            head = "<" + ", ".join(f"v{i}.{a}" for i, a in self.targets) + "> OF "
        ranges = ", ".join(f"EACH v{i} IN {rel}" for i, rel in enumerate(self.bindings))
        conds = [f"v{i}.{ai} = v{j}.{aj}" for j, (i, ai, aj) in enumerate(self.joins, 1)]
        conds += [_render_atom(atom, const) for atom in self.preds]
        return "{" + head + ranges + ": " + (" AND ".join(conds) or "TRUE") + "}"

    def shape(self) -> str:
        """The text with every compared constant abstracted."""
        return self.render(const=lambda value: "?")


def _render_atom(atom, const) -> str:
    kind = atom[0]
    if kind == "const":
        _, i, attr, op, value = atom
        return f"v{i}.{attr} {op} {const(value)}"
    if kind == "attr":
        _, i, a, op, j, b = atom
        return f"v{i}.{a} {op} v{j}.{b}"
    if kind == "some":
        _, i, attr, rel, rattr = atom
        return f"SOME x IN {rel} (x.{rattr} = v{i}.{attr})"
    _, left, right = atom
    return f"({_render_atom(left, const)} OR {_render_atom(right, const)})"


def _const_atom(rng: random.Random, bindings, i: int):
    attr, (_, domain) = rng.choice(sorted(ATTRS[bindings[i]].items()))
    op = rng.choice(OPS_BY_DOMAIN[domain])
    return ("const", i, attr, op, _const(rng, domain, op))


def draw_query(rng: random.Random) -> Query:
    count = rng.choices((1, 2, 3, 4), weights=(30, 35, 22, 13))[0]
    bindings = [rng.choice(sorted(ATTRS))]
    joins = []
    while len(bindings) < count:
        i = rng.randrange(len(bindings))
        candidates = [
            (a, d) for a, (_, d) in sorted(ATTRS[bindings[i]].items()) if d in JOIN_DOMAINS
        ]
        ai, domain = rng.choice(candidates)
        partners = [
            (rel, a)
            for rel in sorted(ATTRS)
            for a, (_, d) in sorted(ATTRS[rel].items())
            if d == domain and (rel, a) != (bindings[i], ai)
        ]
        rel, aj = rng.choice(partners)
        bindings.append(rel)
        joins.append((i, ai, aj))
    preds = []
    for _ in range(rng.choices((0, 1, 2, 3), weights=(15, 40, 30, 15))[0]):
        roll = rng.random()
        i = rng.randrange(len(bindings))
        if roll < 0.62:
            preds.append(_const_atom(rng, bindings, i))
        elif roll < 0.76:
            preds.append(("or", _const_atom(rng, bindings, i), _const_atom(rng, bindings, i)))
        elif roll < 0.90:
            attr, (_, domain) = rng.choice(
                [(a, v) for a, v in sorted(ATTRS[bindings[i]].items()) if v[1] in SOME_TARGETS]
            )
            rel, rattr = rng.choice(SOME_TARGETS[domain])
            preds.append(("some", i, attr, rel, rattr))
        else:
            # Attribute against attribute of another binding, same domain.
            pairs = [
                (i2, a, j, b)
                for i2 in range(len(bindings))
                for j in range(len(bindings))
                if i2 < j
                for a, (_, da) in sorted(ATTRS[bindings[i2]].items())
                for b, (_, db) in sorted(ATTRS[bindings[j]].items())
                if da == db and da in ("weight", "rating", "kind", "city")
            ]
            if pairs:
                i2, a, j, b = rng.choice(pairs)
                preds.append(("attr", i2, a, rng.choice(("=", "<", ">")), j, b))
            else:
                preds.append(_const_atom(rng, bindings, i))
    targets = ()
    if count > 1 or rng.random() < 0.6:
        pool = [(i, a) for i, rel in enumerate(bindings) for a in sorted(ATTRS[rel])]
        targets = tuple(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
    return Query(tuple(bindings), tuple(joins), tuple(preds), targets)


# ---------------------------------------------------------------------------
# Plain-Python oracle
# ---------------------------------------------------------------------------

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _atom_test(atom, bindings, present):
    """(highest binding index used, env -> bool)."""
    kind = atom[0]
    if kind == "const":
        _, i, attr, op, value = atom
        pos, cmp = ATTRS[bindings[i]][attr][0], _CMP[op]
        return i, lambda env: cmp(env[i][pos], value)
    if kind == "attr":
        _, i, a, op, j, b = atom
        pa, pb, cmp = ATTRS[bindings[i]][a][0], ATTRS[bindings[j]][b][0], _CMP[op]
        return max(i, j), lambda env: cmp(env[i][pa], env[j][pb])
    if kind == "some":
        _, i, attr, rel, rattr = atom
        pos, values = ATTRS[bindings[i]][attr][0], present[(rel, rattr)]
        return i, lambda env: env[i][pos] in values
    _, left, right = atom
    li, lt = _atom_test(left, bindings, present)
    ri, rt = _atom_test(right, bindings, present)
    return max(li, ri), lambda env: lt(env) or rt(env)


class Reference:
    """Hash-join evaluation of drawn queries over the generated rows."""

    def __init__(self, data: dict[str, list[tuple]]) -> None:
        self.data = data
        self.index: dict[tuple, dict] = {}
        self.present: dict[tuple, set] = {}
        for rel, attrs in ATTRS.items():
            for attr, (pos, _) in attrs.items():
                buckets: dict = {}
                for row in data[rel]:
                    buckets.setdefault(row[pos], []).append(row)
                self.index[(rel, attr)] = buckets
                self.present[(rel, attr)] = set(buckets)

    def evaluate(self, q: Query) -> set:
        tests: dict[int, list] = {}
        for atom in q.preds:
            at, test = _atom_test(atom, q.bindings, self.present)
            tests.setdefault(at, []).append(test)
        # Lazily, one binding tuple at a time: the oracle holds no
        # intermediate result, so its memory stays out of peak_rss_mb.
        envs = ((row,) for row in self.data[q.bindings[0]])
        for j in range(len(q.bindings)):
            if j:
                envs = self._join(q, j, envs)
            for test in tests.get(j, ()):
                envs = filter(test, envs)
        if not q.targets:
            return {env[0] for env in envs}
        cols = [(i, ATTRS[q.bindings[i]][a][0]) for i, a in q.targets]
        return {tuple(env[i][p] for i, p in cols) for env in envs}

    def _join(self, q: Query, j: int, envs):
        """``envs`` extended by binding ``j`` through its join attribute."""
        i, ai, aj = q.joins[j - 1]
        pos = ATTRS[q.bindings[i]][ai][0]
        buckets = self.index[(q.bindings[j], aj)]
        return (env + (row,) for env in envs for row in buckets.get(env[i][pos], ()))


def _compose(left: set, right: set) -> set:
    by_head: dict = {}
    for head, tail in right:
        by_head.setdefault(head, []).append(tail)
    return {(a, c) for a, b in left for c in by_head.get(b, ())}


def derivations(infront: list, ontop: list) -> dict[str, set]:
    """Least fixpoints of ``tc`` and the ``ahead``/``above`` system."""
    edges_i, edges_o = set(infront), set(ontop)
    tc = set(edges_i)
    while True:
        grown = tc | _compose(edges_i, tc)
        if grown == tc:
            break
        tc = grown
    ahead, above = set(edges_i), set(edges_o)
    while True:
        new_ahead = edges_i | _compose(edges_i, ahead) | _compose(edges_i, above)
        new_above = edges_o | _compose(edges_o, above) | _compose(edges_o, ahead)
        if new_ahead == ahead and new_above == above:
            break
        ahead, above = new_ahead, new_above
    return {DERIVES[0]: tc, DERIVES[1]: ahead, DERIVES[2]: above}


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


class Adhoc(Workload):
    name = "adhoc"
    warmup = 20
    trace_ops = 600
    peak_ops = 1_500

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"adhoc-{seed}")
        parts = [
            (f"p{i:05d}", f"k{rng.randrange(KINDS)}", f"s{rng.randrange(SUPPLIERS):04d}",
             rng.randrange(1_000))
            for i in range(PARTS)
        ]
        supps = [
            (f"s{i:04d}", f"c{rng.randrange(CITIES)}", rng.randrange(10))
            for i in range(SUPPLIERS)
        ]
        # The edge patterns come from a fixed generator, so closure sizes,
        # and so the cost of every derivation, do not vary with the seed
        # (they moved derive latency by 15% between seeds); the seed
        # places the patterns on clusters, one placement for both graphs
        # so that their joint closures keep their sizes too.
        clusters = list(range(PARTS // CLUSTER))
        rng.shuffle(clusters)
        self.data = {
            "Part": parts,
            "Supp": supps,
            "Infront": self._edges("Infront", INFRONT_EDGES, clusters),
            "Ontop": self._edges("Ontop", ONTOP_EDGES, clusters),
        }
        self.ops = []
        for i in range(OPS):
            if i % DERIVE_EVERY == DERIVE_EVERY - 1:
                self.ops.append(("derive", DERIVES[(i // DERIVE_EVERY) % len(DERIVES)]))
            else:
                q = draw_query(rng)
                self.ops.append(("read", q.render(), q))

    @staticmethod
    def _edges(name: str, count: int, clusters: list) -> list[tuple]:
        shape = random.Random(f"adhoc-graph-{name}")
        edges: set = set()
        while len(edges) < count:
            cluster = clusters[shape.randrange(PARTS // CLUSTER)]
            lo, hi = sorted(shape.sample(range(CLUSTER), 2))
            edges.add((f"p{cluster * CLUSTER + lo:05d}", f"p{cluster * CLUSTER + hi:05d}"))
        return sorted(edges)

    def inputs(self):
        return (self.data, [op[:2] for op in self.ops])

    def _session(self):
        from repro.dbpl import Session

        session = Session()
        session.execute(SCHEMA)
        for rel, rows in self.data.items():
            session.insert(rel, rows)
        return session

    def setup(self):
        return {"session": self._session()}

    def oracle(self) -> dict:
        return {
            "reference": Reference(self.data),
            "interpreted": self._session(),
            "derived": derivations(self.data["Infront"], self.data["Ontop"]),
            "shapes": set(),
        }

    def execute(self, state, op):
        return state["session"].query(op[1])

    def check(self, state, op, answer) -> bool:
        if op[0] == "derive":
            return answer == state["derived"][op[1]]
        q = op[2]
        state["shapes"].add(q.shape())
        if len(q.bindings) == 1 and not any(a[0] == "some" for a in q.preds):
            expected = state["interpreted"].query(op[1], mode="interpreted")
        else:
            expected = state["reference"].evaluate(q)
        return answer == expected

    def finish(self, state):
        from repro.dbpl.serving import DEFAULT_PLAN_CACHE_SIZE

        analysis_cache = 256  # Session's analysis cache bound (not exported)
        shapes = len(state["shapes"])
        guards = []
        if shapes <= max(DEFAULT_PLAN_CACHE_SIZE, analysis_cache):
            guards.append(
                f"adhoc: only {shapes} distinct shapes ran; the plan cache "
                f"({DEFAULT_PLAN_CACHE_SIZE}) and analysis cache ({analysis_cache}) "
                "would absorb them"
            )
        return 0, 0, guards, {"distinct_shapes": shapes}
