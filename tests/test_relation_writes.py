"""The write path: indexes carried forward by each write's delta, and
key checks that never rescan the relation.

A committed write moves every cached :class:`HashIndex` to the new
version in O(delta) (``HashIndex.carried``) instead of leaving the next
reader a full rebuild, and ``Relation.insert`` checks a single-attribute
key against the statistics' exact column multiset.  These tests pin the
three things that must hold for that to be safe: an index or snapshot a
reader already holds never changes, a carried index is indistinguishable
from a fresh build, and every key violation is still caught with the
old value kept.
"""

import random
from collections import Counter

import pytest

from repro.errors import KeyConstraintError
from repro.relational import Database, HashIndex, Relation, open_database
from repro.types import INTEGER, STRING, record, relation_type
from repro.types.relations import RelationType

ITEM = record("itemrec", name=STRING, grp=STRING, qty=INTEGER)
ITEMS = relation_type("itemsrel", ITEM, key=("name",))
PAIRS = relation_type("pairsrel", ITEM, key=("name", "grp"))
BAG = relation_type("bagrel", ITEM)


def frozen(index: HashIndex) -> dict:
    """A value copy of an index: bucket multisets, scalar view, stats."""
    scalar = index._scalar
    return {
        "buckets": {k: Counter(v) for k, v in index.buckets.items()},
        "scalar": None if scalar is None else {k: Counter(v) for k, v in scalar.items()},
        "selectivity": index.selectivity(),
        "max_fraction": index.max_bucket_fraction(),
    }


def assert_matches_fresh(rel: Relation, index: HashIndex) -> None:
    fresh = HashIndex(index.positions, rel.raw())
    assert {k: Counter(v) for k, v in index.buckets.items()} == {
        k: Counter(v) for k, v in fresh.buckets.items()
    }
    assert index.selectivity() == fresh.selectivity()
    assert index.max_bucket_fraction() == fresh.max_bucket_fraction()
    assert index._total_rows == len(rel)
    if len(index.positions) == 1:
        assert {k: Counter(v) for k, v in index.scalar_buckets().items()} == {
            k: Counter(v) for k, v in fresh.scalar_buckets().items()
        }


def item_rows(n: int) -> list[tuple]:
    return [(f"i{i:04d}", f"g{i % 7}", i % 5) for i in range(n)]


class RacingRelation(Relation):
    """Runs ``on_swap`` right after each commit swaps in its new rows,
    before the version moves: the window a concurrent reader can hit."""

    __slots__ = ("on_swap",)

    @property
    def _rows(self):
        return Relation._rows.__get__(self)

    @_rows.setter
    def _rows(self, rows):
        Relation._rows.__set__(self, rows)
        hook = getattr(self, "on_swap", None)
        if hook is not None:
            hook()


def warm(rel: Relation) -> tuple[HashIndex, HashIndex]:
    by_grp = rel.index_on(("grp",))
    by_grp.scalar_buckets()
    return by_grp, rel.index_on(("grp", "qty"))


# -- snapshot safety -------------------------------------------------------


class TestReadersKeepTheirState:
    @pytest.mark.parametrize("write", ["insert", "delete", "assign", "clear"])
    def test_index_taken_before_a_write_is_unchanged(self, write):
        rel = Relation("Items", ITEMS, item_rows(60))
        held = warm(rel)
        before = [frozen(index) for index in held]
        if write == "insert":
            rel.insert([("new", "g0", 1), ("newer", "g9", 2)])
        elif write == "delete":
            rel.delete([("i0000", "g0", 0), ("i0007", "g0", 2)])
        elif write == "assign":
            rel.assign(item_rows(30) + [("x", "g0", 4)])
        else:
            rel.clear()
        assert [frozen(index) for index in held] == before
        for old, new in zip(held, warm(rel)):
            assert new is not old

    def test_snapshot_view_taken_before_writes_is_unchanged(self):
        rel = Relation("Items", ITEMS, item_rows(40))
        rel.index_on(("grp",))
        view = rel.snapshot_view()
        rows = list(view.rows)
        index = view.index_on((1,))
        before = frozen(index)
        rel.insert([("new", "g1", 3)])
        rel.delete([("i0001", "g1", 1)])
        assert view.rows == rows
        assert view.index_on((1,)) is index
        assert frozen(index) == before


# -- carried index == fresh build -------------------------------------------


class TestCarriedIndexes:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_writes_match_a_fresh_build(self, seed):
        rng = random.Random(seed)
        rel = Relation("Items", ITEMS, item_rows(rng.randint(0, 40)))
        warm(rel)
        next_name = 10_000
        for _ in range(40):
            if rng.random() < 0.55 or not len(rel):
                batch = []
                for _ in range(rng.randint(1, 4)):
                    batch.append((f"n{next_name}", f"g{rng.randrange(4)}", rng.randrange(3)))
                    next_name += 1
                rel.insert(batch)
            else:
                present = sorted(rel.raw())
                batch = rng.sample(present, rng.randint(1, min(4, len(present))))
                batch.append(("absent", "g0", 0))
                rel.delete(batch)
            for positions in ((1,), (1, 2)):
                carried = rel.peek_index(positions)
                assert carried is not None
                assert_matches_fresh(rel, carried)

    def test_emptied_heaviest_bucket_recomputes_the_max(self):
        rel = Relation("Items", ITEMS, [("a", "big", 1), ("b", "big", 1), ("c", "small", 1)])
        index = rel.index_on(("grp",))
        assert index.max_bucket_fraction() == pytest.approx(2 / 3)
        rel.delete([("a", "big", 1), ("b", "big", 1)])
        carried = rel.peek_index((1,))
        assert "big" not in carried.scalar_buckets()
        assert carried.max_bucket_fraction() == 1.0
        assert_matches_fresh(rel, carried)

    def test_a_stale_stamp_never_clobbers_the_new_generation(self):
        rel = Relation("Items", ITEMS, item_rows(10))
        rel.index_on(("grp",))
        old_version = rel.version
        rel.insert([("new", "g1", 1)])
        private = rel._index_cache.get(old_version, (2,), rel.raw())
        assert rel.peek_index((2,)) is None
        assert rel.peek_index((1,)) is not None
        assert len(private) == 5

    @pytest.mark.parametrize("write", ["insert", "delete", "assign"])
    def test_a_reader_racing_the_commit_leaves_the_carried_index_exact(self, write):
        # A reader runs at the worst point of the commit: the new rows
        # are in place but the version still carries the old stamp.  It
        # builds indexes the cache does not hold yet, over the new rows,
        # stamped with the old version; none of them may be carried
        # forward as if it described the old rows.
        rel = RacingRelation("Items", ITEMS, item_rows(30))
        warm(rel)
        raced = []
        rel.on_swap = lambda: raced.extend(
            (rel.version, rel.index_on(attrs)) for attrs in (("qty",), ("grp", "name"))
        )
        if write == "insert":
            rel.insert([("new", "g0", 1), ("newer", "g1", 1)])
        elif write == "delete":
            rel.delete([("i0001", "g1", 1), ("i0008", "g1", 3)])
        else:
            rel.assign(item_rows(20) + [("x", "g2", 1)])
        rel.on_swap = None
        assert [version for version, _ in raced] == [rel.version - 1] * 2
        for positions in ((1,), (1, 2), (2,), (1, 0)):
            index = rel._index_cache.get(rel.version, positions, rel.raw())
            assert_matches_fresh(rel, index)
        rel.insert([("later", "g1", 1)])
        for positions in ((1,), (2,), (1, 0)):
            assert_matches_fresh(rel, rel.peek_index(positions))

    def test_clear_starts_an_empty_generation(self):
        rel = Relation("Items", ITEMS, item_rows(10))
        warm(rel)
        rel.clear()
        assert rel.peek_index((1,)) is None
        assert len(rel.index_on(("grp",))) == 0


# -- key checks --------------------------------------------------------------


class TestKeyChecks:
    def assert_rejected(self, rel: Relation, rows) -> None:
        before, version = rel.rows(), rel.version
        indexes = [frozen(rel.index_on(("grp",)))]
        with pytest.raises(KeyConstraintError):
            rel.insert(rows)
        assert rel.rows() == before
        assert rel.version == version
        assert [frozen(rel.index_on(("grp",)))] == indexes

    def test_conflict_with_a_committed_row(self):
        rel = Relation("Items", ITEMS, item_rows(20))
        self.assert_rejected(rel, [("fresh", "g0", 1), ("i0003", "g3", 4)])

    def test_conflict_inside_one_batch(self):
        rel = Relation("Items", ITEMS, item_rows(20))
        self.assert_rejected(rel, [("dup", "g0", 1), ("dup", "g0", 2)])

    def test_identical_rows_are_no_conflict(self):
        rel = Relation("Items", ITEMS, item_rows(20))
        before = rel.rows()
        rel.insert([("i0003", "g3", 3), ("i0003", "g3", 3)])
        assert rel.rows() == before

    def test_delete_then_reinsert_with_other_values(self):
        rel = Relation("Items", ITEMS, item_rows(20))
        rel.delete([("i0003", "g3", 3)])
        rel.insert([("i0003", "g6", 9)])
        assert ("i0003", "g6", 9) in rel
        self.assert_rejected(rel, [("i0003", "g3", 3)])

    def test_after_clear(self):
        rel = Relation("Items", ITEMS, item_rows(20))
        rel.clear()
        rel.insert([("i0003", "g0", 1)])
        self.assert_rejected(rel, [("i0003", "g0", 2)])
        rel.insert([("i0003", "g0", 1), ("i0004", "g0", 1)])
        assert len(rel) == 2

    def test_declared_empty_relation_keeps_exact_statistics(self, monkeypatch):
        rel = Relation("Items", ITEMS)
        calls = Counter()
        check = RelationType.check_key

        def counted_check(self, rows):
            calls["check_key"] += 1
            check(self, rows)

        monkeypatch.setattr(RelationType, "check_key", counted_check)
        for row in item_rows(5):
            rel.insert([row])
        assert calls == Counter()
        assert rel._stats.row_count == 5
        self.assert_rejected(rel, [("i0001", "g0", 0)])

    def test_relation_without_statistics(self):
        rel = Relation("Items", ITEMS, item_rows(5)).snapshot()
        assert rel._stats is None
        rel.insert([("i0009", "g2", 4)])
        self.assert_rejected(rel, [("i0001", "g0", 0)])

    def test_composite_key(self):
        rel = Relation("Pairs", PAIRS, item_rows(20))
        rel.insert([("i0003", "other", 0)])
        self.assert_rejected(rel, [("i0003", "g3", 4)])
        self.assert_rejected(rel, [("z", "g0", 1), ("z", "g0", 2)])

    def test_cold_relation_first_write(self, tmp_path):
        db = Database("d")
        db.declare("Items", ITEMS, item_rows(50))
        db.spill(str(tmp_path / "d"), rows_per_partition=16)
        rel = open_database(str(tmp_path / "d")).relation("Items")
        assert rel.is_cold
        with pytest.raises(KeyConstraintError):
            rel.insert([("i0010", "g0", 4)])
        assert rel.rows() == frozenset(item_rows(50))
        rel.insert([("i0010", "g3", 0), ("new", "g1", 1)])
        assert len(rel) == 51

    def test_keyless_relation_accepts_anything(self):
        rel = Relation("Bag", BAG, item_rows(5))
        rel.insert([("i0001", "g9", 9)])
        assert len(rel) == 6


# -- O(delta) is a count, not a timing -----------------------------------------


def test_small_write_builds_no_index_and_runs_no_full_key_check(monkeypatch):
    rel = Relation("Items", ITEMS, item_rows(2_000))
    warm(rel)
    calls = Counter()
    build, check = HashIndex.__init__, RelationType.check_key

    def counted_build(self, *args):
        calls["build"] += 1
        build(self, *args)

    def counted_check(self, rows):
        calls["check_key"] += 1
        check(self, rows)

    monkeypatch.setattr(HashIndex, "__init__", counted_build)
    monkeypatch.setattr(RelationType, "check_key", counted_check)
    rel.insert([("one-more", "g2", 1)])
    rel.insert([("i0006", "g6", 1)])  # already committed: a no-op
    rel.delete([("i0005", "g5", 0)])
    warm(rel)
    assert calls == Counter()


def test_statistics_built_while_a_writer_holds_the_lock_stay_uncached():
    rel = Relation("Items", ITEMS, item_rows(10)).snapshot()
    with rel._write_lock:
        assert rel.stats().row_count == 10
    assert rel._stats is None
    assert rel.stats() is rel.stats()
