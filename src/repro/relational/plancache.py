"""Normalized-plan result cache for the executor.

Entries are keyed by ``(Query.fingerprint(), Catalog.state_token(query),
mode)``. The fingerprint normalizes commutative WHERE/HAVING conjunct order,
so syntactically different but plan-equivalent queries share an entry; the
state token folds in the catalog identity, its DDL generation, and the
``(data_version, row_count)`` of every base table the query transitively
reads — any insert or DDL change makes old keys unreachable, so a hit is
*always* sound. Catalog mutation hooks additionally evict eagerly so dead
generations don't linger until LRU pressure.

Cached values are immutable snapshots ``(name, schema, rows, provenance,
provider)``; every hit rebuilds a fresh :class:`Table`, so callers can never
corrupt the cache by mutating a result.

Concurrency: the executor uses the **reservation** protocol
(:meth:`PlanCache.begin` → :meth:`PlanCache.fetch` →
:meth:`PlanCache.commit`) rather than lookup-then-store. A reservation
captures the cache key *and* the invalidation generation before execution
starts; committing re-checks the generation, so a result computed against
pre-mutation state can never be stored under a post-mutation key. (The old
lookup/store pair recomputed the key at store time — under concurrency a
stale result could land under the fresh token.)

The cache also owns a :class:`JoinIndex`: the star-join output of the
vector tier, kept as leaf index vectors so that *cold* executions (result
misses) of different reports over the same join skip the hash probe. It
shares this cache's lifetime, :meth:`PlanCache.clear` and DDL hook.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from repro.cache import CacheStats, LRUCache
from repro.errors import CatalogError
from repro.obs import instrument
from repro.obs.trace import TRACER
from repro.relational.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.relational.catalog import Catalog
    from repro.relational.query import Query
    from repro.relational.schema import Schema

__all__ = [
    "JoinEntry",
    "JoinIndex",
    "PlanCache",
    "PlanReservation",
    "default_plan_cache",
]


class JoinEntry(NamedTuple):
    """One inner star join's output, as the vector tier's frame holds it.

    ``leaf_idx[i]`` maps output row → ordinal of leaf ``tables[i]``
    (leaf 0 is the source, the others are joined in order); ``colmap``,
    ``schema``, ``name`` and ``n`` describe the joined relation. ``tokens``
    are the leaves' ``(data_version, row count)`` taken *before* the join
    read them. Immutable: readers copy what they change.
    """

    tables: tuple[Table, ...]
    tokens: tuple[tuple[int, int], ...]
    leaf_idx: tuple[Any, ...]  # array('q') per leaf
    colmap: Mapping[str, tuple[int, str]]
    schema: "Schema"
    name: str
    n: int


class JoinIndex:
    """Star-join outputs reused across cores that join the same leaves.

    Keyed by ``(catalog uid, leaf table names, key column indices of each
    join step)``. A lookup classifies the entry against the leaves the
    caller is about to join:

    * **hit** — every leaf is the same :class:`Table` object with an equal
      token; the entry is the join output as is;
    * **extend** — only the source (leaf 0) grew, by appends alone. Base
      tables change only through :meth:`Table.insert`, which appends, and
      an inner join emits rows in left order at every step, so the output
      for the new source rows goes after the entry's rows unchanged;
    * **miss** — no entry, or anything else changed: rebuild.

    Fills are checked after the compute, like the plan cache's
    reservations: :meth:`store` drops an entry whose leaves changed while
    it was built, or that an invalidation raced.
    """

    def __init__(self, maxsize: int = 16) -> None:
        self._cache = LRUCache(maxsize=maxsize)
        self._lock = threading.Lock()
        #: Lookups answered by probing only the source's new rows.
        self.extends = 0

    @property
    def stats(self) -> CacheStats:
        """Hits and misses (extends are counted apart), evictions, drops."""
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(
        self, key: tuple, tables: tuple[Table, ...], tokens: tuple
    ) -> tuple[str, JoinEntry | None, int]:
        """``(outcome, entry, fill_token)`` for joining ``tables`` now.

        ``outcome`` is ``"hit"``, ``"extend"`` or ``"miss"``; ``entry`` is
        ``None`` on a miss. Pass ``fill_token`` back to :meth:`store`.
        """
        fill = self._cache.fill_token()
        entry = self._cache.peek(key)
        outcome = "miss"
        if entry is not None and all(
            old is new for old, new in zip(entry.tables, tables)
        ):
            if entry.tokens == tokens:
                outcome = "hit"
            elif entry.tokens[1:] == tokens[1:] and _appended(
                entry.tokens[0], tokens[0]
            ):
                outcome = "extend"
        with self._lock:
            if outcome == "hit":
                self._cache.stats.hits += 1
            elif outcome == "extend":
                self.extends += 1
            else:
                self._cache.stats.misses += 1
        if TRACER.active():
            instrument.CACHE_LOOKUPS.inc(1, ("join_index", outcome))
        return outcome, (None if outcome == "miss" else entry), fill

    def store(self, key: tuple, entry: JoinEntry, fill: int) -> bool:
        """Keep ``entry`` unless a leaf changed since its tokens were taken
        or an invalidation ran since ``fill`` was; True when it landed."""
        now = tuple((t.data_version, len(t.rows)) for t in entry.tables)
        if now != entry.tokens:
            with self._lock:
                self._cache.stats.dropped_fills += 1
            return False
        return self._cache.put_if(key, entry, fill)

    def invalidate_catalog(self, catalog: "Catalog") -> int:
        cat_uid = catalog.uid
        return self._cache.invalidate_where(lambda k: k[0] == cat_uid)

    def clear(self) -> int:
        return self._cache.clear()


def _appended(old: tuple[int, int], new: tuple[int, int]) -> bool:
    """Did a table go from token ``old`` to ``new`` by inserts alone?

    Each insert bumps ``data_version`` and the row count by one.
    """
    grown = new[1] - old[1]
    return grown > 0 and new[0] - old[0] == grown


@dataclass(frozen=True)
class PlanReservation:
    """Key + invalidation token captured before an execution begins.

    Holding one pins the catalog state the upcoming result will be computed
    against: the key embeds the state token observed at ``begin`` time and
    ``token`` is the cache generation at that instant. :meth:`PlanCache.commit`
    refuses the fill if any invalidation ran in between.
    """

    key: tuple
    token: int
    catalog: "Catalog"


class PlanCache:
    """LRU cache of executed query results, versioned by catalog state."""

    def __init__(self, maxsize: int = 256) -> None:
        self._cache = LRUCache(maxsize=maxsize)
        #: Join outputs reused by cold executions routed through this cache.
        self.join_index = JoinIndex()
        self._hooked_catalogs: set[int] = set()
        self._hook_lock = threading.Lock()

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    # -- keying -------------------------------------------------------------

    def _key(self, query: "Query", catalog: "Catalog", mode: str) -> tuple:
        return (query.fingerprint(), catalog.state_token(query), mode)

    def _ensure_hook(self, catalog: "Catalog") -> None:
        with self._hook_lock:
            if catalog.uid in self._hooked_catalogs:
                return
            self._hooked_catalogs.add(catalog.uid)
        catalog.add_mutation_hook(self._on_catalog_mutation)

    def _on_catalog_mutation(self, catalog: "Catalog", name: str) -> None:
        self.invalidate_catalog(catalog)

    # -- reservation protocol -------------------------------------------------

    def begin(
        self, query: "Query", catalog: "Catalog", mode: str
    ) -> PlanReservation | None:
        """Capture key + invalidation token for an execution starting *now*.

        Returns ``None`` when the query is not keyable (unresolvable relation
        chain); the executor then runs uncached and reports the error with
        query-level context.
        """
        # Hook before token capture: a mutation landing after this line must
        # bump the generation, or the eventual commit would fill stale.
        self._ensure_hook(catalog)
        token = self._cache.fill_token()
        try:
            key = self._key(query, catalog, mode)
        except CatalogError:
            return None
        return PlanReservation(key=key, token=token, catalog=catalog)

    def fetch(
        self, reservation: PlanReservation, *, name: str | None = None
    ) -> Table | None:
        """A fresh :class:`Table` rebuilt from the reserved key, or ``None``."""
        snap = self._cache.get(reservation.key)
        if TRACER.active():
            instrument.cache_lookup("plan", snap is not None)
        if snap is None:
            return None
        snap_name, schema, rows, provs, provider = snap
        return Table.derived(
            name if name is not None else snap_name,
            schema,
            rows,
            provs,
            provider=provider,
        )

    def commit(self, reservation: PlanReservation, result: Table) -> bool:
        """Fill the reserved key, unless an invalidation intervened.

        Returns True when the fill landed. A False return means a catalog
        mutation (or explicit clear) ran between ``begin`` and now; the
        result was computed against superseded state and is discarded
        (counted in ``stats.dropped_fills``).
        """
        self._ensure_hook(reservation.catalog)
        provenance = result.provenance
        if not getattr(provenance, "lazy_provenance", False):
            # Lazy (mask-encoded) provenance is immutable and shareable, so
            # it snapshots by reference; everything else is frozen to a tuple.
            provenance = tuple(provenance)
        snap = (
            result.name,
            result.schema,
            tuple(result.rows),
            provenance,
            result.provider,
        )
        return self._cache.put_if(reservation.key, snap, reservation.token)

    # -- legacy lookup/store protocol -----------------------------------------

    def lookup(
        self,
        query: "Query",
        catalog: "Catalog",
        mode: str,
        *,
        name: str | None = None,
    ) -> Table | None:
        """A fresh :class:`Table` rebuilt from a cached snapshot, or ``None``.

        Single-threaded convenience; concurrent callers should use the
        reservation protocol so key capture and fill are race-free.
        """
        reservation = self.begin(query, catalog, mode)
        if reservation is None:
            return None
        return self.fetch(reservation, name=name)

    def store(
        self, query: "Query", catalog: "Catalog", mode: str, result: Table
    ) -> None:
        """Snapshot ``result`` under the current catalog state (legacy path)."""
        reservation = self.begin(query, catalog, mode)
        if reservation is None:
            return
        self.commit(reservation, result)

    # -- invalidation -------------------------------------------------------

    def invalidate_catalog(self, catalog: "Catalog") -> int:
        """Evict every result derived from ``catalog``, and its join index
        entries; returns the count of results evicted."""
        self.join_index.invalidate_catalog(catalog)
        cat_uid = catalog.uid
        return self._cache.invalidate_where(lambda k: k[1][0] == cat_uid)

    def clear(self) -> int:
        """Drop every result and join index entry; returns the result count."""
        self.join_index.clear()
        return self._cache.clear()


_DEFAULT = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache used when a config names none."""
    return _DEFAULT
