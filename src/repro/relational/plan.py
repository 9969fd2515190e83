"""Logical-plan rewrites over :class:`~repro.relational.query.Query` trees.

:func:`unfold` is *view merging*: a reader over a view is rewritten to read
the view's base tables directly. Meta-reports are views over the
warehouse, so every service report is such a reader; merged, it is a
base-table core that the fused vector tier (:mod:`repro.relational.vector`)
can plan. The rewrite is exact. The merged query yields the same values,
row order, schema, why-lineage and where-provenance as the original, so an
engine may run either one.

Only rename-free select-project-join views merge. Anything else is a plan
boundary and the query comes back unchanged:

* **Reader.** Its FROM source is a view and it has no JOINs of its own. A
  reader JOIN would qualify colliding columns with the view's name, which
  the merged join cannot reproduce.
* **Mergeable view.** One SELECT core with inner joins only and a SELECT
  list of plain column names: no renames, no computed columns, no WHERE,
  GROUP BY, aggregates, HAVING, DISTINCT, set operations, ORDER BY or
  LIMIT. Its FROM source is a base table or, recursively, a mergeable view.
  Each JOIN reads a base table or a mergeable view over a single base
  table. Merging a joined view on the right would re-associate the join,
  and its ON keys may name any of that view's tables, which a left-deep
  join chain cannot express. Every column the view names, in its SELECT
  list and its ON keys, must resolve exactly once and to the same base
  column in the merged join as in the original.
* **Column check.** Every column the reader takes from the view (WHERE,
  GROUP BY, aggregate arguments, and the SELECT items of a non-aggregate
  reader) must be one of the view's outputs. Otherwise the original query
  raises, and unfolding would hide that. ORDER BY needs no check: it
  resolves against the reader's output, which unfolding leaves unchanged.
* **Reader ``SELECT *``.** A reader with no SELECT list and no aggregates
  takes the view's SELECT list.

The merged query keeps the reader's WHERE, grouping, SELECT, DISTINCT,
ORDER BY and LIMIT, and each set-operation branch is unfolded on its own.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.relational.catalog import Catalog
from repro.relational.query import JoinClause, Query, SetOpClause

__all__ = ["unfold"]

#: Deepest view chain :func:`unfold` merges. Executors that bound view
#: nesting only offer unfolding while this many levels fit under their own
#: bound, so a chain the original query would reject is never merged.
MAX_UNFOLD_DEPTH = 8

# (leaf ordinal in the merged join order, base column name)
_Origin = tuple[int, str]


class _Frame(NamedTuple):
    """The columns of a relation, in order, and the base column behind each.

    ``name`` is the qualifier a join gives this relation's colliding
    columns, exactly as :func:`repro.relational.algebra.join_frame` does.
    """

    name: str
    origin: dict[str, _Origin]

    def shifted(self, offset: int) -> "_Frame":
        origin = {c: (leaf + offset, src) for c, (leaf, src) in self.origin.items()}
        return _Frame(self.name, origin)


class _Merged(NamedTuple):
    """A relation as base tables: ``source`` plus inner ``joins``.

    ``visible`` is the relation as the original query sees it (a view's
    SELECT list, named after the view). ``flat`` is the merged join's full
    frame, hidden columns included.
    """

    source: str
    joins: tuple[JoinClause, ...]
    visible: _Frame
    flat: _Frame


def unfold(query: Query, catalog: Catalog) -> Query:
    """``query`` with its mergeable view source replaced by base tables.

    Returns ``query`` itself when nothing merges (see the module docstring
    for the scope). Set-operation branches are unfolded independently.
    """
    merged = _unfold_core(query, catalog)
    if query.set_ops:
        branches = tuple(
            SetOpClause(c.op, unfold(c.query, catalog)) for c in query.set_ops
        )
        if any(b.query is not c.query for b, c in zip(branches, query.set_ops)):
            merged = replace(merged, set_ops=branches)
    return merged


def _unfold_core(query: Query, catalog: Catalog) -> Query:
    if query.joins or not catalog.is_view(query.source):
        return query
    merged = _relation(query.source, catalog, 0)
    if merged is None or not _reads_within(query, merged.visible.origin):
        return query
    select = query.select
    if not select and not query.is_aggregate:
        select = tuple(merged.visible.origin)
    return replace(query, source=merged.source, joins=merged.joins, select=select)


def _reads_within(query: Query, outputs: dict[str, _Origin]) -> bool:
    """Whether every column ``query`` takes from its source is in ``outputs``."""
    used: set[str] = set(query.group_by)
    if query.where is not None:
        used |= query.where.columns()
    used.update(a.column for a in query.aggregates if a.column is not None)
    if not query.is_aggregate:
        for item in query.select:
            used |= {item} if isinstance(item, str) else item[1].columns()
    return used.issubset(outputs)


def _relation(name: str, catalog: Catalog, depth: int) -> _Merged | None:
    """``name`` as base tables, or ``None`` when it does not merge."""
    if catalog.is_table(name):
        frame = _Frame(name, {c: (0, c) for c in catalog.table(name).schema.names})
        return _Merged(name, (), frame, frame)
    if not catalog.is_view(name) or depth >= MAX_UNFOLD_DEPTH:
        return None
    body = catalog.view(name).query
    if not _mergeable_shape(body):
        return None
    left = _relation(body.source, catalog, depth + 1)
    if left is None:
        return None
    source, joins = left.source, list(left.joins)
    orig, flat = left.visible, left.flat
    for clause in body.joins:
        right = _relation(clause.table, catalog, depth + 1)
        if right is None or right.joins:
            return None
        offset = len(joins) + 1
        rvis, rflat = right.visible.shifted(offset), right.flat.shifted(offset)
        for lcol, rcol in clause.on:
            if not (_same(lcol, orig, flat) and _same(rcol, rvis, rflat)):
                return None
        orig, flat = _joined(orig, rvis), _joined(flat, rflat)
        if orig is None or flat is None:
            return None
        joins.append(JoinClause(right.source, clause.on))
    select = body.select
    if len(set(select)) != len(select):
        return None
    if not all(_same(c, orig, flat) for c in select):
        return None
    visible = _Frame(name, {c: orig.origin[c] for c in select})
    return _Merged(source, tuple(joins), visible, flat)


def _mergeable_shape(body: Query) -> bool:
    return (
        bool(body.select)
        and all(isinstance(item, str) for item in body.select)
        and all(clause.how == "inner" for clause in body.joins)
        and body.where is None
        and not body.is_aggregate
        and body.having is None
        and not body.select_distinct
        and not body.set_ops
        and not body.order
        and body.limit_n is None
    )


def _same(column: str, orig: _Frame, flat: _Frame) -> bool:
    """``column`` resolves to the same base column in both frames."""
    origin = orig.origin.get(column)
    return origin is not None and flat.origin.get(column) == origin


def _joined(left: _Frame, right: _Frame) -> _Frame | None:
    """The frame of ``left JOIN right``; ``None`` on a residual duplicate."""
    collisions = left.origin.keys() & right.origin.keys()
    origin: dict[str, _Origin] = {}
    for side in (left, right):
        for c, at in side.origin.items():
            origin[f"{side.name}.{c}" if c in collisions else c] = at
    if len(origin) != len(left.origin) + len(right.origin):
        return None
    return _Frame(f"{left.name}_{right.name}", origin)
