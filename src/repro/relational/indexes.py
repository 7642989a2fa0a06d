"""Hash indexes over relation contents.

The paper's runtime level (section 4) generates *physical access paths*
— materialized partitions of a relation keyed by the constant values a
query restricts on.  :class:`HashIndex` is the underlying mechanism: a
dict from key projection to the set of matching rows.  Indexes are built
lazily and cached per (relation version, attribute positions); a write
carries every cached index forward to the new version in time
proportional to its delta (:meth:`HashIndex.carried`), so a relation
pays a full build per index once, not once per mutation.
"""

from __future__ import annotations

from collections.abc import Iterable


class HashIndex:
    """A hash partition of a row set on a tuple of attribute positions."""

    __slots__ = (
        "positions",
        "buckets",
        "_total_rows",
        "_max_bucket_rows",
        "_scalar",
    )

    def __init__(self, positions: tuple[int, ...], rows: Iterable[tuple]) -> None:
        self.positions = positions
        buckets: dict[tuple, list[tuple]] = {}
        total = 0
        heaviest = 0
        for row in rows:
            key = tuple(row[i] for i in positions)
            bucket = buckets.setdefault(key, [])
            bucket.append(row)
            total += 1
            if len(bucket) > heaviest:
                heaviest = len(bucket)
        self.buckets = buckets
        # Buckets are immutable after build (a write makes a new index,
        # see carried), so the planner's skew probe is O(1).
        self._total_rows = total
        self._max_bucket_rows = heaviest
        self._scalar: dict | None = None

    def lookup(self, key: tuple) -> list[tuple]:
        """All rows whose projection on ``positions`` equals ``key``."""
        return self.buckets.get(key, _EMPTY)

    def scalar_buckets(self) -> dict:
        """Buckets keyed by the bare value of a single-position key.

        The batched executor probes this view so a one-column join needs
        no key-tuple allocation per probe; built lazily, once per index.
        """
        if self._scalar is None:
            self._scalar = {key[0]: rows for key, rows in self.buckets.items()}
        return self._scalar

    def probe_table(self, scalar: bool = False) -> dict:
        """The grouped-probe view of the index: a bucket dict fetched
        once per batch and then tested per distinct key (``key in
        probe_table`` for semi-join verdicts, ``probe_table.get`` for
        the generated join kernels' C-level ``map`` probes).
        ``scalar=True`` answers with the bare-value view of a
        single-position index."""
        return self.scalar_buckets() if scalar else self.buckets

    def keys(self) -> Iterable[tuple]:
        return self.buckets.keys()

    def __len__(self) -> int:
        return len(self.buckets)

    # -- planner statistics -------------------------------------------------

    def selectivity(self) -> float:
        """Average fraction of the rows one key lookup returns.

        This is the *measured* equality selectivity of the indexed key —
        exactly ``1 / distinct_keys`` — which the cost model prefers over
        the independence-assumption product when an index already exists.
        """
        return 1.0 / len(self.buckets) if self.buckets else 1.0

    def max_bucket_fraction(self) -> float:
        """Fraction of all rows sitting in the heaviest bucket.

        The skew signal of the indexed key: probes in a join tend to land
        on heavy values more often than the uniform ``1/distinct``
        average predicts, so the cost model blends this in exactly as
        :meth:`~repro.relational.stats.TableStats.eq_selectivity` does
        for un-indexed columns.
        """
        if self._total_rows <= 0:
            return 0.0
        return self._max_bucket_rows / self._total_rows

    # -- copy-on-write maintenance -------------------------------------------

    def carried(self, inserted: Iterable[tuple], deleted: Iterable[tuple]) -> "HashIndex":
        """A new index over this one's rows plus ``inserted`` minus ``deleted``.

        ``inserted`` rows must be absent and ``deleted`` rows present (a
        write's genuine delta).  ``self`` is never touched — a reader may
        still be probing it — so the bucket dict (and the scalar view, if
        built) is a C-level copy that shares every untouched bucket list,
        and only the buckets the delta touches get fresh lists.  Costs
        O(distinct keys) at C speed plus O(delta + touched buckets).
        """
        positions = self.positions
        touched: dict[tuple, tuple[set, list]] = {}
        for row in deleted:
            touched.setdefault(tuple(row[i] for i in positions), (set(), []))[0].add(row)
        for row in inserted:
            touched.setdefault(tuple(row[i] for i in positions), (set(), []))[1].append(row)
        buckets = self.buckets.copy()
        scalar = None
        if self._scalar is not None and len(positions) == 1:
            scalar = self._scalar.copy()
        total = self._total_rows
        heaviest = self._max_bucket_rows
        rescan = False
        for key, (gone, added) in touched.items():
            old = buckets.get(key, _EMPTY)
            bucket = [row for row in old if row not in gone] if gone else list(old)
            bucket += added
            total += len(bucket) - len(old)
            if len(bucket) < len(old) == self._max_bucket_rows:
                rescan = True
            heaviest = max(heaviest, len(bucket))
            if bucket:
                buckets[key] = bucket
                if scalar is not None:
                    scalar[key[0]] = bucket
            elif old:
                del buckets[key]
                if scalar is not None:
                    del scalar[key[0]]
        if rescan:
            heaviest = max(map(len, buckets.values()), default=0)
        index = HashIndex.__new__(HashIndex)
        index.positions = positions
        index.buckets = buckets
        index._total_rows = total
        index._max_bucket_rows = heaviest
        index._scalar = scalar
        return index


_EMPTY: list[tuple] = []


class ShardView:
    """One hash partition of a row set: the rows plus lazy local indexes.

    The sharded executor hands each worker a view of its partition; a
    view builds hash indexes over *its own rows only* (so a partitioned
    build side costs ``rows/k`` per shard, not a full-relation index),
    lazily and cached for the view's lifetime.  Views are immutable
    after construction — the owning :class:`PartitionCache` rebuilds
    them wholesale when the relation's version moves.
    """

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def index_on(self, positions: tuple[int, ...]) -> HashIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = HashIndex(positions, self.rows)
            self._indexes[positions] = index
        return index

    def __len__(self) -> int:
        return len(self.rows)


class SnapshotView(ShardView):
    """A version-stamped pinned view of a whole relation.

    The serving layer's snapshot reads hand plans ``(rows, index_on)``
    pairs through ``ExecutionContext.source_overrides`` — exactly the
    contract :class:`ShardView` already implements for partitions — so a
    reader keeps scanning (and index-probing) the rows that existed when
    the snapshot was taken, no matter how many writers commit meanwhile.
    The pinned list is the relation's copy-on-write row list: it is never
    mutated in place, only replaced, so the view stays valid forever.
    """

    __slots__ = ("name", "version")

    def __init__(self, rows: list[tuple], name: str, version: int) -> None:
        super().__init__(rows)
        self.name = name
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<SnapshotView {self.name}@v{self.version}: {len(self.rows)} rows>"


def partition_rows(
    rows: Iterable[tuple], positions: tuple[int, ...], k: int
) -> list[list[tuple]]:
    """Hash-partition ``rows`` into ``k`` lists on the key ``positions``.

    Empty ``positions`` partition on the whole row.  The same key always
    lands in the same partition (within one process — tuple hashing is
    seeded per interpreter), which is what lets the sharded executor
    partition a join's build and probe sides compatibly.
    """
    if k <= 1:
        return [list(rows)]
    shards: list[list[tuple]] = [[] for _ in range(k)]
    if positions:
        if len(positions) == 1:
            pos = positions[0]
            for row in rows:
                shards[hash(row[pos]) % k].append(row)
        else:
            for row in rows:
                shards[hash(tuple(row[i] for i in positions)) % k].append(row)
    else:
        for row in rows:
            shards[hash(row) % k].append(row)
    return shards


def partition_views(
    rows: Iterable[tuple], positions: tuple[int, ...], k: int
) -> tuple[ShardView, ...]:
    """``k`` :class:`ShardView`s over a hash partition of ``rows``."""
    return tuple(ShardView(part) for part in partition_rows(rows, positions, k))


class PartitionCache:
    """Per-relation cache of shard views, invalidated by version stamps.

    The sharded executor asks for the same ``(key positions, k)`` split
    on every execution — and on every fixpoint iteration — so the
    partition pass (and each shard's local indexes) must be paid once
    per relation version, exactly like :class:`IndexCache`.

    The cache entry is one ``(version, dict)`` tuple swapped atomically,
    never a dict cleared in place: a reader that raced a version move
    keeps filling its own (orphaned) generation instead of writing a
    stale split into the new one.
    """

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: tuple[int, dict[tuple, tuple[ShardView, ...]]] = (-1, {})

    def get(
        self,
        version: int,
        positions: tuple[int, ...],
        k: int,
        rows: Iterable[tuple],
    ) -> tuple[ShardView, ...]:
        entry = self._entry
        if entry[0] != version:
            entry = (version, {})
            self._entry = entry
        partitions = entry[1]
        key = (positions, k)
        views = partitions.get(key)
        if views is None:
            views = partition_views(rows, positions, k)
            partitions[key] = views
        return views


class IndexCache:
    """Per-relation cache of hash indexes, stamped with a relation version.

    Like :class:`PartitionCache`, the whole generation is one
    ``(version, dict)`` tuple replaced atomically, so concurrent readers
    racing a writer's version bump can never install an index built over
    one version's rows into another version's cache.  A writer moves the
    cache with :meth:`advance` *before* it swaps in the new rows and bumps
    the relation's version: every index of the old generation is carried
    forward by the write's delta into the new one, so a reader that sees
    the new version finds its indexes ready, and a reader still holding
    the old stamp builds a private index rather than clobbering the newer
    generation.
    """

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: tuple[int, dict[tuple[int, ...], HashIndex]] = (-1, {})

    def get(
        self,
        version: int,
        positions: tuple[int, ...],
        rows: Iterable[tuple],
    ) -> HashIndex:
        """Return (building if necessary) the index for ``positions``."""
        entry = self._entry
        if entry[0] != version:
            if entry[0] > version:
                return HashIndex(positions, rows)
            entry = (version, {})
            self._entry = entry
        indexes = entry[1]
        index = indexes.get(positions)
        if index is None:
            index = HashIndex(positions, rows)
            indexes[positions] = index
        return index

    def peek(self, version: int, positions: tuple[int, ...]) -> HashIndex | None:
        """An already-built, still-valid index — never builds one.

        Lets the cost model consult measured index selectivities for free
        without forcing index construction during planning.
        """
        entry = self._entry
        if entry[0] != version:
            return None
        return entry[1].get(positions)

    def advance(self, version: int, delta=None) -> None:
        """Install the generation for ``version + 1``.

        ``delta`` is the write's ``(inserted, deleted)`` rows: when the
        cache holds ``version`` every index is carried forward by it
        (see :meth:`HashIndex.carried`); without a delta, or when the
        cache is already stale, the new generation starts empty.  The
        writer calls this before it swaps in the new rows, so every
        index it carries was built over the old ones; a reader adding
        to the old generation after the copy below is simply dropped.
        """
        entry = self._entry
        carried: dict[tuple[int, ...], HashIndex] = {}
        if delta is not None and entry[0] == version:
            for positions, index in entry[1].copy().items():
                carried[positions] = index.carried(*delta)
        self._entry = (version + 1, carried)
