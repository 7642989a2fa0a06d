"""Relation variables: typed, key-enforcing sets of tuples.

A :class:`Relation` is the runtime object behind a DBPL ``VAR`` of a
relation type.  Every state change goes through the checked-assignment
discipline of section 2.2: element typing and the key functional
dependency are verified before the variable's value changes, otherwise
a :class:`~repro.errors.KeyConstraintError` or
:class:`~repro.errors.TypeMismatchError` is raised and the old value is
kept (the paper's ``ELSE <exception>``).

Concurrency discipline (the serving layer's contract): mutations are
**copy-on-write** — every insert/delete/assign builds a *new* row set and
swaps the reference, never mutating the set a concurrent reader may be
iterating — and writers serialize on a per-relation lock.  Readers run
lock-free: any set or cached row list they obtained stays internally
consistent forever (it corresponds to exactly one committed state), so a
query pipeline can never crash on a resized set or observe a torn,
half-applied mutation.  :meth:`snapshot_view` pins one committed state
as a version-stamped view for multi-scan snapshot reads.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from contextlib import nullcontext

from ..errors import TypeMismatchError
from ..types import RelationType, check_relation_assignment
from .indexes import HashIndex, IndexCache, PartitionCache, ShardView, SnapshotView
from .rows import Row
from .stats import TableStats
from .vectors import Dictionary, EncodedTable

#: Sentinel row-list cache entry: (version, list) — replaced atomically.
_NO_RAW: tuple[int, list[tuple]] = (-1, [])

#: Sentinel encoded-view cache entry, same discipline as :data:`_NO_RAW`.
_NO_ENCODED: tuple[int, EncodedTable | None] = (-1, None)


class Relation:
    """A mutable relation variable holding a set of raw value tuples."""

    __slots__ = (
        "name",
        "rtype",
        "_rows",
        "_version",
        "_index_cache",
        "_partition_cache",
        "_stats",
        "_raw_entry",
        "_dicts",
        "_encoded_entry",
        "_write_lock",
        "_sink",
        "_store",
    )

    def __init__(
        self,
        name: str,
        rtype: RelationType,
        rows: Iterable[tuple] = (),
    ) -> None:
        self.name = name
        self.rtype = rtype
        self._rows: set[tuple] = set()
        self._version = 0
        self._index_cache = IndexCache()
        self._partition_cache = PartitionCache()
        #: Kept exact by every write; None only on a snapshot copy or a
        #: store without statistics, until :meth:`stats` builds it.
        self._stats: TableStats | None = TableStats(len(rtype.element.attribute_names))
        #: (version, rows-as-list), one tuple swapped atomically so the
        #: stamp can never be paired with another version's list.
        self._raw_entry: tuple[int, list[tuple]] = _NO_RAW
        #: Per-column dictionaries (created on first encode, then kept
        #: forever — append-only, so ids stay stable across versions).
        self._dicts: tuple[Dictionary, ...] | None = None
        #: (version, EncodedTable), swapped atomically like _raw_entry.
        self._encoded_entry: tuple[int, EncodedTable | None] = _NO_ENCODED
        #: Writers serialize here; readers never take it.
        self._write_lock = threading.Lock()
        #: Write-capture sink (duck-typed: ``lock``/``watching``/``emit``)
        #: — a per-database SubscriptionRegistry once anything subscribes
        #: to queries over this database, else None.  Wired by
        #: :meth:`repro.relational.Database.attach_sink`; this module
        #: stays ignorant of the serving layer above it.
        self._sink = None
        #: Storage backend (repro.relational.storage.RelationStore) when
        #: this relation was opened from a spilled database, else None.
        #: A store-backed relation starts **cold**: ``_rows`` is None
        #: until something genuinely needs the full row set, and scans
        #: go through the store's pushdown readers instead.
        self._store = None
        rows = tuple(rows)
        if rows:
            self.assign(rows)

    @classmethod
    def from_store(cls, name: str, rtype: RelationType, store) -> "Relation":
        """A cold relation backed by a spilled store (no rows in memory).

        Cardinality and statistics come from the store's manifest, so
        the planner and ``StatsCatalog.epoch()`` work without a scan;
        the first operation that needs the actual row set materializes
        it (see :meth:`_materialize`), after which the relation behaves
        exactly like a warm one — including accepting mutations.
        """
        rel = cls.__new__(cls)
        rel.name = name
        rel.rtype = rtype
        rel._rows = None
        rel._version = 0
        rel._index_cache = IndexCache()
        rel._partition_cache = PartitionCache()
        rel._stats = store.load_stats()
        rel._raw_entry = _NO_RAW
        rel._dicts = None
        rel._encoded_entry = _NO_ENCODED
        rel._write_lock = threading.Lock()
        rel._sink = None
        rel._store = store
        return rel

    # -- value access -------------------------------------------------------

    @property
    def element_type(self):
        return self.rtype.element

    @property
    def is_cold(self) -> bool:
        """True while a store-backed relation has not materialized rows."""
        return self._rows is None

    def _materialize(self) -> set[tuple]:
        """The committed row set, loading it from the store on first need.

        Materialization is *not* a mutation: the version stays put (the
        cache sentinels stamp -1, so version-0 caches still build), and
        no delta is emitted — the rows were always logically present.
        """
        rows = self._rows
        if rows is None:
            with self._write_lock:
                rows = self._rows
                if rows is None:
                    rows = set(self._store.scan())
                    self._rows = rows
        return rows

    def rows(self) -> frozenset[tuple]:
        """The current value as an immutable set of raw tuples."""
        return frozenset(self._materialize())

    def raw(self) -> set[tuple]:
        """The committed row set; callers must not mutate it.

        Copy-on-write mutation means the returned set object never
        changes after the reference is obtained — concurrent writers
        swap in *new* sets, they never resize this one under a reader's
        iteration.
        """
        return self._materialize()

    def raw_list(self) -> list[tuple]:
        """The current rows as a list, cached per version.

        The columnar executor's kernels make several aligned passes over
        a scan's rows (key slice, probe, expansion), which needs a
        stable sequence; materializing it once per relation version means
        repeated executions — fixpoint iterations especially — share one
        list instead of re-listing the set per scan.  Callers must not
        mutate it; writers never do (they replace, see
        :meth:`_commit`), so a list handed out once stays a consistent
        snapshot of one committed state.
        """
        return self._raw_pair()[1]

    def _raw_pair(self) -> tuple[int, list[tuple]]:
        """One consistent ``(version, rows-as-list)`` pair.

        The cached entry is a single tuple replaced atomically.  Racing
        a concurrent commit can at worst label a *newer* committed list
        with an older stamp (the next probe rebuilds); the list itself
        always materializes exactly one committed set object, because
        committed sets are never mutated in place.
        """
        entry = self._raw_entry
        version = self._version
        if entry[0] != version:
            entry = (version, list(self._materialize()))
            self._raw_entry = entry
        return entry

    @property
    def version(self) -> int:
        """Monotone stamp, bumped on every mutation (keys per-version caches)."""
        return self._version

    def __iter__(self) -> Iterator[Row]:
        schema = self.rtype.element
        for values in self._materialize():
            yield Row(schema, values)

    def __len__(self) -> int:
        # A cold relation answers from the manifest: epoch computation
        # and plan caching must never force a scan just to count.
        rows = self._rows
        if rows is None:
            return self._store.row_count
        return len(rows)

    def __contains__(self, item: object) -> bool:
        rows = self._materialize()
        if isinstance(item, Row):
            return item.values in rows
        return item in rows

    def is_empty(self) -> bool:
        rows = self._rows
        if rows is None:
            return self._store.row_count == 0
        return not rows

    def sorted_rows(self) -> list[tuple]:
        """Deterministically ordered contents, for display and tests."""
        return sorted(self._materialize())

    # -- checked mutation ----------------------------------------------------

    def _commit(self, new_rows: set[tuple], delta=None) -> None:
        """Swap in a new committed row set (copy-on-write commit point).

        The index cache moves first: its new generation, carried forward
        by ``delta`` (the write's ``(inserted, deleted)`` rows), is built
        from indexes over the old rows only and installed before the row
        swap, so a reader that sees the new version finds its indexes
        built, and a reader still on the old stamp builds a private index
        instead of adding to either generation.  The set reference is
        replaced *before* the version bump: a racing reader can at worst
        pair new rows with the old stamp, never the reverse (a stale list
        vouched for by a fresh version).
        """
        version = self._version
        self._index_cache.advance(version, delta)
        self._rows = new_rows
        self._version = version + 1

    def _delta_guard(self, inserted, deleted):
        """(lock-or-null context, sink-or-None) for one mutation's commit.

        Once a subscription registry is attached to the database, every
        mutation that genuinely changes this relation commits *inside*
        the registry lock and reports its insert/delete delta batch —
        commit + maintenance is one atomic step, so two relations can
        never interleave commits and emissions (which would double-count
        derivations joining both deltas), and a concurrent ``subscribe``
        (which materializes under the same lock) either sees the commit
        in its initial result or receives the delta afterwards, never
        neither.  Lock order is always relation ``_write_lock`` →
        registry lock; the registry only ever *reads* other relations
        (lock-free by the copy-on-write discipline), so the order cannot
        invert.  No-op mutations skip the lock entirely, as does every
        database without subscriptions (``_sink`` is None).
        """
        sink = self._sink
        if sink is not None and (inserted or deleted):
            return sink.lock, sink
        return nullcontext(), None

    def assign(self, rows: Iterable[object]) -> None:
        """``rel := rex`` with full type and key checking.

        The assignment's pass over the new value also installs fresh
        table statistics (one batched absorption), so the first
        post-assign compilation is priced from real numbers instead of
        waiting for a lazy rebuild that used to leave it blind.
        """
        raw = tuple(self._coerce(r) for r in rows)
        checked = check_relation_assignment(self.rtype, raw)
        # Materialize outside the lock (it is not reentrant): mutating a
        # cold relation first loads its committed state for the delta.
        self._materialize()
        with self._write_lock:
            new_rows = set(checked)
            old_rows = self._rows
            inserted = [r for r in new_rows if r not in old_rows]
            deleted = [r for r in old_rows if r not in new_rows]
            guard, sink = self._delta_guard(inserted, deleted)
            with guard:
                stats = TableStats(len(self.rtype.element.attribute_names))
                stats.add_rows_batch(new_rows)
                self._stats = stats
                self._commit(new_rows, (inserted, deleted))
                if sink is not None:
                    sink.emit(self, inserted, deleted)

    def insert(self, rows: Iterable[object]) -> None:
        """``rel :+ rex`` — add tuples, keeping typing and key integrity.

        One type sweep, one key check, and one *batched* statistics
        absorption for the whole argument (distinct multisets,
        heavy-hitter counts, and histograms are updated once per call,
        not once per row).  The key check and the cached indexes cost
        O(delta) (see :meth:`_keys_fresh` and :meth:`_commit`).  The new
        value is built as a copy and swapped in whole, so concurrent
        readers keep iterating the previous committed set untouched.
        """
        raw = [self._coerce(r) for r in rows]
        element = self.rtype.element
        for row in raw:
            if not element.contains(row):
                raise TypeMismatchError(
                    f"tuple {row!r} is not of element type {element.name} "
                    f"(insert into {self.name})"
                )
        self._materialize()
        with self._write_lock:
            old_rows = self._rows
            if not self._keys_fresh(old_rows, raw):
                self.rtype.check_key(list(old_rows) + raw)
            new_rows = set(old_rows)
            new_rows.update(raw)
            fresh = raw
            if len(new_rows) - len(old_rows) != len(raw):
                # Some rows were committed already or repeat in the batch.
                fresh = []
                seen: set[tuple] = set()
                for row in raw:
                    if row not in old_rows and row not in seen:
                        seen.add(row)
                        fresh.append(row)
            if self._stats is not None:
                self._stats.add_rows_batch(fresh)
            raw_entry = self._raw_entry
            encoded_entry = self._encoded_entry
            old_version = self._version
            guard, sink = self._delta_guard(fresh, ())
            with guard:
                self._commit(new_rows, (fresh, ()))
                # Incremental maintenance of the cached row list and encoded
                # vectors, on the same mutation path as the statistics: when
                # both caches describe the pre-insert version, append the
                # genuinely fresh rows instead of letting the next reader
                # re-list and re-encode the whole relation.
                if fresh and raw_entry[0] == old_version:
                    new_list = raw_entry[1] + fresh
                    self._raw_entry = (self._version, new_list)
                    if encoded_entry[0] == old_version and encoded_entry[1] is not None:
                        self._encoded_entry = (
                            self._version,
                            encoded_entry[1].extended(fresh, new_list),
                        )
                if sink is not None:
                    sink.emit(self, fresh, ())

    def insert_many(self, rows: Iterable[object]) -> None:
        """Bulk ``rel :+ rex``: the explicit batch-load entry point.

        An alias of :meth:`insert`, which already absorbs its whole
        argument in one batch; kept as a named API so loaders say what
        they mean.
        """
        self.insert(rows)

    def delete(self, rows: Iterable[object]) -> None:
        """``rel :- rex`` — remove tuples (absent tuples are ignored)."""
        raw = {self._coerce(r) for r in rows}
        self._materialize()
        with self._write_lock:
            old_rows = self._rows
            removed = raw & old_rows
            guard, sink = self._delta_guard((), removed)
            with guard:
                if self._stats is not None:
                    self._stats.remove_rows(removed)
                self._commit(old_rows - raw, ((), removed))
                if sink is not None:
                    sink.emit(self, (), list(removed))

    def clear(self) -> None:
        self._materialize()
        with self._write_lock:
            old_rows = self._rows
            guard, sink = self._delta_guard((), old_rows)
            with guard:
                self._stats = TableStats(len(self.rtype.element.attribute_names))
                self._commit(set())
                if sink is not None:
                    sink.emit(self, (), list(old_rows))

    def _keys_fresh(self, old_rows: set[tuple], raw: list[tuple]) -> bool:
        """True when inserting ``raw`` provably keeps the key dependency.

        O(len(raw)) for a single-attribute key: the statistics keep the
        key column's multiset exactly, so a value no committed row
        carries is fresh, a committed row re-inserted is a no-op, and a
        dict catches two rows of the batch sharing a key.  False means a
        suspected conflict, a composite key, or no statistics: the
        caller then runs the full check, which raises with the culprits.
        """
        key = self.rtype.key_positions
        if not key:
            return True
        stats = self._stats
        if len(key) != 1 or stats is None:
            return False
        pos = key[0]
        counts = stats.columns[pos].counts
        batch: dict = {}
        for row in raw:
            value = row[pos]
            if batch.setdefault(value, row) != row:
                return False
            if counts.get(value) and row not in old_rows:
                return False
        return True

    @staticmethod
    def _coerce(item: object) -> tuple:
        if isinstance(item, Row):
            return item.values
        if isinstance(item, tuple):
            return item
        if isinstance(item, list):
            return tuple(item)
        raise TypeMismatchError(
            f"relation elements must be tuples or Rows, got {type(item).__name__}"
        )

    # -- indexes ------------------------------------------------------------

    def index_on(self, attrs: tuple[str, ...]) -> HashIndex:
        """A (cached) hash index on the named attributes."""
        positions = tuple(self.rtype.element.index_of(a) for a in attrs)
        return self._index_cache.get(self._version, positions, self._materialize())

    def peek_index(self, positions: tuple[int, ...]) -> HashIndex | None:
        """An already-built index on ``positions``, or None (never builds)."""
        return self._index_cache.peek(self._version, positions)

    def partitions(self, key: tuple[str, ...], k: int) -> tuple[ShardView, ...]:
        """``k`` hash partitions of the rows on the named key attributes.

        The shard views (rows plus their lazily-built local indexes) are
        cached per relation version and per ``(key, k)``, so the sharded
        executor pays the partition pass once per mutation — fixpoint
        iterations and repeated queries share one split, exactly as
        :meth:`index_on` shares one hash index.  An empty ``key``
        partitions on the whole row.
        """
        positions = tuple(self.rtype.element.index_of(a) for a in key)
        return self._partition_cache.get(
            self._version, positions, k, self.raw_list()
        )

    # -- encoded vectors ------------------------------------------------------

    def dictionaries(self) -> tuple[Dictionary, ...]:
        """One append-only value↔id :class:`Dictionary` per column.

        Created on first use and kept for the relation's lifetime —
        dictionaries never shrink, so ids stay stable across every
        mutation and version-stamped encoded views remain mutually
        comparable (the vector executor's join translation tables and
        snapshot encodings rely on this).
        """
        dicts = self._dicts
        if dicts is None:
            with self._write_lock:
                dicts = self._dicts
                if dicts is None:
                    if self._store is not None:
                        # The persisted dictionaries produced the stored
                        # id pages; adopting them keeps those pages valid
                        # (dictionaries only append) across later use.
                        dicts = self._store.load_dictionaries()
                    else:
                        dicts = tuple(
                            Dictionary() for _ in self.rtype.element.attribute_names
                        )
                    self._dicts = dicts
        return dicts

    def encoded(self) -> EncodedTable:
        """The current rows as dictionary-encoded column vectors.

        Cached per relation version next to :meth:`raw_list` (one
        ``(version, table)`` entry swapped atomically); inserts extend
        the cached table incrementally (see :meth:`insert`), other
        mutations invalidate and the next reader re-encodes against the
        persistent dictionaries.
        """
        entry = self._encoded_entry
        if self._rows is None:
            # Cold fast path: the stored id pages *are* the encoding —
            # concatenate them instead of materializing and re-encoding.
            version = self._version
            if entry[0] == version and entry[1] is not None:
                return entry[1]
            table = self._store.encoded_table()
            self._encoded_entry = (version, table)
            self._raw_entry = (version, table.rows)
            return table
        version, rows = self._raw_pair()
        if entry[0] != version or entry[1] is None:
            entry = (version, EncodedTable.from_rows(rows, self.dictionaries()))
            self._encoded_entry = entry
        return entry[1]

    # -- statistics ---------------------------------------------------------

    def stats(self) -> TableStats:
        """Table statistics: maintained incrementally, rebuilt lazily.

        Inserts and deletes update the live object in place (see
        :meth:`insert`/:meth:`delete`); a wholesale :meth:`assign`
        installs fresh statistics computed during the assignment itself.
        """
        stats = self._stats
        if stats is None:
            rows = self._materialize()
            stats = TableStats.from_rows(rows, len(self.rtype.element.attribute_names))
            # Installed only under the write lock and only while the rows
            # just counted are still committed: inserts trust these counts
            # for the key check.  A held lock (a writer mid-commit, maybe
            # this thread) leaves the result uncached, so a caller inside
            # a commit rebuilds it per call; only snapshot copies and
            # stores without statistics ever reach this path.
            if self._write_lock.acquire(blocking=False):
                try:
                    if self._stats is None and self._rows is rows:
                        self._stats = stats
                finally:
                    self._write_lock.release()
        return stats

    # -- storage pushdown ----------------------------------------------------

    @property
    def cold_store(self):
        """The backing RelationStore while cold (pushdown-capable), else None.

        Once the relation materializes (any whole-set read or mutation),
        in-memory rows are authoritative and pushdown turns itself off —
        the store keeps describing the spilled state, not the live one.
        """
        store = self._store
        if store is None or self._rows is not None:
            return None
        return store

    def scan_pushdown(self, projection, selection, params=None):
        """Rows via the store's projection/predicate-pushdown reader.

        Returns a full-width row list (dead columns None) when the
        relation is cold and store-backed, else None — the caller falls
        back to :meth:`raw_list` and its own filters.  The pushed
        predicates are re-checked downstream, so this is a pure
        pre-filter: dropping any of them is always safe.
        """
        store = self.cold_store
        if store is None:
            return None
        return store.scan(projection, selection, params)

    def scan_cost_fraction(self, restrictions) -> float:
        """Fraction of rows a pushdown scan would decode under
        ``restrictions`` (concrete ``(pos, op, value)`` triples) — the
        cost model's partition-pruning discount.  1.0 when warm."""
        store = self.cold_store
        if store is None:
            return 1.0
        return store.prune_fraction(restrictions)

    # -- misc ------------------------------------------------------------

    def snapshot(self, name: str | None = None) -> "Relation":
        """An independent copy (used by the paper's REPEAT-loop programs)."""
        copy = Relation(name or self.name, self.rtype)
        copy._rows = set(self._materialize())
        copy._stats = None
        copy._version = 1
        return copy

    def snapshot_view(self) -> SnapshotView:
        """A version-stamped pinned view of the current committed state.

        The view holds the copy-on-write row list (never mutated, only
        ever replaced on the relation) plus its own lazy local indexes,
        so a reader pipeline can keep scanning and probing one committed
        state while writers move the relation forward — the serving
        layer's snapshot-read primitive (see ``repro.dbpl.serving``).
        """
        version, rows = self._raw_pair()
        return SnapshotView(rows, self.name, version)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return f"<Relation {self.name}: {len(self)} x {self.rtype.element.name}>"
