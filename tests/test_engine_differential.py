"""Differential tests: the columnar batch executor against the row-store
reference engine.

The row engine (:func:`repro.relational.execute_row`) is the semantics
oracle. For hypothesis-generated random tables (NULL-heavy) and random query
trees — joins (inner and left outer), three-valued WHERE logic, grouping and
aggregates, HAVING, computed projections, DISTINCT, ORDER BY, LIMIT — the
columnar path (with plan caching disabled, so every run actually executes)
must produce:

* the same output schema,
* the same rows in the same order (which implies bag equality), and
* *identical provenance*: why-lineage and per-cell where-provenance,
  value-equal row by row — the property PLA auditing depends on;

and when the reference raises, the columnar path must raise the same
exception type with the same message.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.relational import (
    ROW,
    AggSpec,
    Catalog,
    ExecutionConfig,
    PlanCache,
    Query,
    Table,
    View,
    execute,
    execute_row,
    make_schema,
    parse_query,
)
from repro.relational.expressions import And, Arith, Col, Comparison, IsNull, Lit, Not, Or
from repro.relational.plan import MAX_UNFOLD_DEPTH, unfold
from repro.relational.plancache import JoinEntry, JoinIndex
from repro.relational.types import ColumnType

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)

T_SCHEMA = make_schema(
    ("g", ColumnType.STRING),
    ("x", ColumnType.INT),
    ("y", ColumnType.INT),
)
D_SCHEMA = make_schema(("h", ColumnType.STRING), ("z", ColumnType.INT))

# ---------------------------------------------------------------------------
# The differential harness
# ---------------------------------------------------------------------------


def _run(engine, query, catalog):
    try:
        return engine(query, catalog), None
    except Exception as exc:  # noqa: BLE001 - parity includes error parity
        return None, exc


def assert_equivalent(
    query: Query, catalog: Catalog, config: ExecutionConfig = UNCACHED
) -> None:
    """Both engines agree on result (rows, order, schema, provenance) or on
    the raised exception (type and message). ``config`` runs the columnar
    side (uncached by default)."""
    ref, ref_exc = _run(execute_row, query, catalog)
    got, got_exc = _run(
        lambda q, c: execute(q, c, config=config), query, catalog
    )
    if ref_exc is not None or got_exc is not None:
        assert got_exc is not None, f"columnar succeeded, reference raised {ref_exc!r}"
        assert ref_exc is not None, f"reference succeeded, columnar raised {got_exc!r}"
        assert type(got_exc) is type(ref_exc), (ref_exc, got_exc)
        assert str(got_exc) == str(ref_exc)
        return
    assert got.name == ref.name
    assert got.schema == ref.schema
    assert list(got.rows) == list(ref.rows)
    assert [p.lineage for p in got.provenance] == [p.lineage for p in ref.provenance]
    assert list(got.provenance) == list(ref.provenance)


def build_catalog(t_rows, d_rows) -> Catalog:
    cat = Catalog()
    cat.add_table(Table.from_rows("t", T_SCHEMA, t_rows, provider="p"))
    cat.add_table(Table.from_rows("d", D_SCHEMA, d_rows, provider="q"))
    return cat


# ---------------------------------------------------------------------------
# Strategies: NULL-heavy tables, random query trees
# ---------------------------------------------------------------------------

_g = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
_i = st.one_of(st.none(), st.integers(min_value=-4, max_value=4))

t_rows_strategy = st.lists(st.tuples(_g, _i, _i), min_size=0, max_size=20)
d_rows_strategy = st.lists(st.tuples(_g, _i), min_size=0, max_size=10)

_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _predicates(int_cols: list[str], str_cols: list[str]):
    int_leaf = st.builds(
        lambda c, op, v: Comparison(op, Col(c), Lit(v)),
        st.sampled_from(int_cols),
        st.sampled_from(_OPS),
        st.integers(min_value=-3, max_value=3),
    )
    str_leaf = st.builds(
        lambda c, op, v: Comparison(op, Col(c), Lit(v)),
        st.sampled_from(str_cols),
        st.sampled_from(["=", "!="]),
        st.sampled_from(["a", "b"]),
    )
    null_leaf = st.builds(IsNull, st.builds(Col, st.sampled_from(int_cols + str_cols)))
    col_col = st.builds(
        lambda l, op, r: Comparison(op, Col(l), Col(r)),
        st.sampled_from(int_cols),
        st.sampled_from(_OPS),
        st.sampled_from(int_cols),
    )
    leaf = st.one_of(int_leaf, str_leaf, null_leaf, col_col)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=5,
    )


_AGG_MENU = [
    AggSpec("count", None, "cnt"),
    AggSpec("sum", "x", "sx"),
    AggSpec("min", "y", "mny"),
    AggSpec("max", "x", "mxx"),
    AggSpec("count", "g", "cdg", distinct=True),
]


@st.composite
def query_trees(draw) -> Query:
    q = Query.from_("t")
    str_cols, int_cols = ["g"], ["x", "y"]
    if draw(st.booleans()):
        how = draw(st.sampled_from(["inner", "left"]))
        on = draw(st.sampled_from([[("g", "h")], [("x", "z")], [("g", "h"), ("x", "z")]]))
        q = q.join("d", on, how=how)
        str_cols, int_cols = str_cols + ["h"], int_cols + ["z"]
    if draw(st.booleans()):
        q = q.filter(draw(_predicates(int_cols, str_cols)))

    if draw(st.booleans()):  # aggregate pipeline
        group = draw(st.sampled_from([(), ("g",), ("g", "x")]))
        aggs = draw(
            st.lists(st.sampled_from(_AGG_MENU), min_size=0 if group else 1, max_size=3)
        )
        if group:
            q = q.group(*group)
        q = q.agg(*aggs)
        out_ints = [a.alias for a in aggs] + [c for c in group if c != "g"]
        if out_ints and draw(st.booleans()):
            q = q.having_(
                Comparison(
                    draw(st.sampled_from(_OPS)),
                    Col(draw(st.sampled_from(out_ints))),
                    Lit(draw(st.integers(min_value=-2, max_value=4))),
                )
            )
        out_names = list(group) + [a.alias for a in aggs]
        if out_names and draw(st.booleans()):
            q = q.project(*draw(st.permutations(out_names)))
    else:  # plain pipeline
        out_names = str_cols + int_cols
        if draw(st.booleans()):
            items: list = list(draw(st.permutations(out_names))[:3])
            if draw(st.booleans()):
                items.append(
                    (
                        "calc",
                        Arith(
                            draw(st.sampled_from(["+", "-", "*"])),
                            Col(draw(st.sampled_from(int_cols))),
                            Col(draw(st.sampled_from(int_cols))),
                        ),
                    )
                )
            q = q.project(*items)
            out_names = [i if isinstance(i, str) else i[0] for i in items]

    if draw(st.booleans()):
        q = q.distinct()
    if out_names and draw(st.booleans()):
        keys = [
            (c, draw(st.booleans()))
            for c in draw(st.permutations(out_names))[:2]
        ]
        q = q.order_by(*keys)
    if draw(st.booleans()):
        q = q.limit(draw(st.integers(min_value=0, max_value=7)))
    return q


# ---------------------------------------------------------------------------
# Property: random query trees over random NULL-heavy instances
# ---------------------------------------------------------------------------


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(t_rows=t_rows_strategy, d_rows=d_rows_strategy, query=query_trees())
def test_columnar_matches_row_reference(t_rows, d_rows, query):
    assert_equivalent(query, build_catalog(t_rows, d_rows))


@settings(max_examples=60, deadline=None)
@given(t_rows=t_rows_strategy, sql_where=st.sampled_from([
    "x > 1",
    "x > 1 AND y < 2",
    "NOT (g = 'a')",
    "g = 'a' OR x <= 0",
    "x IS NULL",
    "x IS NOT NULL AND y IS NULL",
]))
def test_three_valued_where_parity(t_rows, sql_where):
    """UNKNOWN must exclude rows identically on both paths."""
    cat = build_catalog(t_rows, [])
    assert_equivalent(parse_query(f"SELECT g, x FROM t WHERE {sql_where}"), cat)


# ---------------------------------------------------------------------------
# Pinned regressions: the corners the property test found or must keep
# ---------------------------------------------------------------------------


def test_empty_tables_everywhere():
    cat = build_catalog([], [])
    for sql in (
        "SELECT g, x FROM t",
        "SELECT g, x FROM t WHERE x > 0",
        "SELECT g FROM t JOIN d ON g = h",
        "SELECT COUNT(*) AS n FROM t",
        "SELECT g, SUM(x) AS sx FROM t GROUP BY g",
    ):
        assert_equivalent(parse_query(sql), cat)


def test_scalar_aggregate_on_empty_input_emits_one_row():
    cat = build_catalog([], [])
    out = execute(parse_query("SELECT COUNT(*) AS n FROM t"), cat, config=UNCACHED)
    ref = execute_row(parse_query("SELECT COUNT(*) AS n FROM t"), cat)
    assert list(out.rows) == list(ref.rows) == [(0,)]


def test_left_join_miss_provenance_drops_right_keys():
    """Reference left-miss rows carry only left-side where keys; the
    columnar path must reproduce the *exact* dict, not an empty-ref one."""
    cat = build_catalog([("a", 1, 1), ("zzz", 2, 2)], [("a", 1)])
    q = Query.from_("t").join("d", [("g", "h")], how="left")
    assert_equivalent(q, cat)
    ref = execute_row(q, cat)
    miss = [p for r, p in zip(ref.rows, ref.provenance) if r[0] == "zzz"]
    assert miss and set(miss[0].where) == {"g", "x", "y"}


def test_chained_join_over_left_outer_partial_provenance():
    """A left-outer result (with partial where dicts) fed into a second
    join exercises the exact-rebuild path."""
    cat = build_catalog([("a", 1, 1), ("b", 2, 2)], [("a", 7)])
    q = (
        Query.from_("t")
        .join("d", [("g", "h")], how="left")
        .join("d", [("x", "z")], how="left")
    )
    assert_equivalent(q, cat)


def test_collision_join_qualifies_both_sides():
    cat = Catalog()
    cat.add_table(Table.from_rows("t", T_SCHEMA, [("a", 1, 2)], provider="p"))
    c_schema = make_schema(("g", ColumnType.STRING), ("x", ColumnType.INT))
    cat.add_table(Table.from_rows("c", c_schema, [("a", 9)], provider="q"))
    for q in (
        Query.from_("t").join("c", [("g", "g")]),
        Query.from_("t").join("c", [("g", "g")]).project("t.g", "c.x"),
        Query.from_("t").join("c", [("g", "g")]).filter(
            Comparison(">", Col("c.x"), Lit(0))
        ).project("t.x", "c.x"),
    ):
        assert_equivalent(q, cat)


def test_view_chain_parity():
    cat = build_catalog([("a", 1, 2), ("b", None, 3), ("a", 4, None)], [("a", 1)])
    cat.add_view(View("v1", parse_query("SELECT g, x FROM t WHERE x IS NOT NULL")))
    cat.add_view(View("v2", parse_query("SELECT g FROM v1 WHERE x > 0")))
    assert_equivalent(parse_query("SELECT g FROM v1"), cat)
    assert_equivalent(parse_query("SELECT COUNT(*) AS n FROM v1 GROUP BY g"), cat)
    # v2 is invalid (x was projected away) — both engines must agree on that too.
    assert_equivalent(parse_query("SELECT g FROM v2"), cat)


def test_distinct_merges_provenance_identically():
    cat = build_catalog([("a", 1, 1), ("a", 1, 2), ("a", 1, 3)], [])
    assert_equivalent(parse_query("SELECT DISTINCT g, x FROM t"), cat)


def test_order_by_nulls_last_both_directions():
    cat = build_catalog([("a", None, 1), ("b", 2, 1), ("c", 1, 1), ("d", None, 2)], [])
    assert_equivalent(parse_query("SELECT g, x FROM t ORDER BY x"), cat)
    assert_equivalent(parse_query("SELECT g, x FROM t ORDER BY x DESC, g"), cat)


def test_limit_zero_and_overshoot():
    cat = build_catalog([("a", 1, 1), ("b", 2, 2)], [])
    assert_equivalent(parse_query("SELECT g FROM t LIMIT 0"), cat)
    assert_equivalent(parse_query("SELECT g FROM t LIMIT 99"), cat)


def test_error_parity_on_bad_queries():
    cat = build_catalog([("a", 1, 1)], [("a", 1)])
    for sql_or_query in (
        parse_query("SELECT nope FROM t"),
        parse_query("SELECT g FROM t WHERE nope > 1"),
        parse_query("SELECT g FROM missing"),
        Query.from_("t").having_(Comparison(">", Col("x"), Lit(0))).project("g"),
        Query.from_("t")
        .filter(Comparison(">", Col("x"), Lit(0)))
        .having_(Comparison(">", Col("x"), Lit(0)))
        .project("g"),
    ):
        assert_equivalent(sql_or_query, cat)


def test_count_distinct_and_nan_free_dedup():
    cat = build_catalog(
        [("a", 1, 1), ("a", 1, 2), ("a", 2, 3), ("b", None, 4)], []
    )
    assert_equivalent(
        parse_query("SELECT g, COUNT(DISTINCT x) AS dx FROM t GROUP BY g"), cat
    )


def test_bare_select_star_returns_base_contents():
    cat = build_catalog([("a", 1, 1)], [])
    ref = execute_row(Query.from_("t"), cat)
    got = execute(Query.from_("t"), cat, config=UNCACHED)
    assert list(got.rows) == list(ref.rows)
    assert list(got.provenance) == list(ref.provenance)
    assert got.schema == ref.schema


@pytest.mark.parametrize("how", ["inner", "left"])
def test_null_join_keys_never_match(how):
    cat = build_catalog([(None, 1, 1), ("a", 2, 2)], [(None, 5), ("a", 6)])
    q = Query.from_("t").join("d", [("g", "h")], how=how)
    assert_equivalent(q, cat)


# ---------------------------------------------------------------------------
# View unfolding: readers over mergeable views (repro.relational.plan)
# ---------------------------------------------------------------------------
#
# The columnar engine offers readers over rename-free SPJ views to the vector
# tier in unfolded form; the row engine always resolves views recursively.
# So row == columnar here is the claim that unfolding is exact, including
# the shapes that must not merge (which fall back to the resolver).

_BASE_COLUMNS = {"t": ["g", "x", "y"], "d": ["h", "z"]}
_STRING_COLUMNS = {"g", "h"}


def _is_string(column: str) -> bool:
    return column.rsplit(".", 1)[-1] in _STRING_COLUMNS


def _joined_names(left_name, left_cols, right_name, right_cols):
    """Output names of ``left JOIN right``, qualified like ``join_frame``."""
    collisions = set(left_cols) & set(right_cols)
    return [f"{left_name}.{c}" if c in collisions else c for c in left_cols] + [
        f"{right_name}.{c}" if c in collisions else c for c in right_cols
    ]


def _join_pairs(draw, left_cols, right_cols):
    pairs = [
        (l, r)
        for l in left_cols
        for r in right_cols
        if _is_string(l) == _is_string(r)
    ]
    if not pairs:
        return None
    return draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))


@st.composite
def mergeable_views(draw):
    """Views over ``t``/``d``, up to two levels nested, mostly mergeable.

    ``dv`` is a single-table view over ``d`` (a legal right-hand join
    input); ``v1`` reads ``t`` and may join ``d`` or ``dv``; ``v2`` reads
    ``v1`` and may join ``d`` or ``dv`` again, which can make names collide
    differently in the nested and the merged join. Returns
    ``{view: (query, output names)}``.
    """
    views = {}
    dv_cols = list(draw(st.permutations(_BASE_COLUMNS["d"])))[: draw(st.integers(1, 2))]
    views["dv"] = (Query.from_("d").project(*dv_cols), dv_cols)

    def level(source, cols):
        q, names = Query.from_(source), list(cols)
        right = draw(st.sampled_from([None, "d", "dv"]))
        if right is not None:
            rcols = _BASE_COLUMNS["d"] if right == "d" else dv_cols
            on = _join_pairs(draw, names, rcols)
            if on is not None:
                q = q.join(right, on)
                names = _joined_names(source, names, right, rcols)
        select = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return q.project(*select), select

    views["v1"] = level("t", _BASE_COLUMNS["t"])
    views["v2"] = level("v1", views["v1"][1])
    return views


def _reader_predicate(draw, cols):
    column = draw(st.sampled_from(cols))
    if draw(st.booleans()):
        return IsNull(Col(column))
    if _is_string(column):
        return Comparison(draw(st.sampled_from(["=", "!="])), Col(column), Lit("a"))
    return Comparison(
        draw(st.sampled_from(_OPS)), Col(column), Lit(draw(st.integers(-3, 3)))
    )


@st.composite
def view_readers(draw, views):
    """A reader over one view: projection, WHERE, aggregate, ``SELECT *``,
    DISTINCT, ORDER BY/LIMIT, or a set-operation head. Now and then it
    names a column the view does not output."""
    source = draw(st.sampled_from(["v2", "v1", "dv"]))
    outs = list(views[source][1])
    cols = outs + (["y"] if draw(st.integers(0, 9)) == 0 else [])
    q = Query.from_(source)
    if draw(st.booleans()):
        q = q.filter(_reader_predicate(draw, cols))
    shape = draw(st.sampled_from(["star", "project", "aggregate"]))
    if shape == "project":
        items = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3, unique=True))
        ints = [c for c in cols if not _is_string(c)]
        if ints and draw(st.booleans()):
            items.append(
                ("calc", Arith("+", Col(draw(st.sampled_from(ints))), Lit(1)))
            )
        q = q.project(*items)
        outs = [i if isinstance(i, str) else i[0] for i in items]
    elif shape == "aggregate":
        group = draw(st.lists(st.sampled_from(cols), max_size=2, unique=True))
        aggs = [AggSpec("count", None, "cnt")]
        ints = [c for c in cols if not _is_string(c)]
        if ints and draw(st.booleans()):
            aggs.append(AggSpec("sum", draw(st.sampled_from(ints)), "total"))
        q = q.group(*group).agg(*aggs)
        outs = group + [a.alias for a in aggs]
    if draw(st.booleans()):
        q = q.distinct()
    if draw(st.integers(0, 3)) == 0:
        other = draw(st.sampled_from(["dv", "v1", "v2", "t"]))
        other_cols = views[other][1] if other in views else _BASE_COLUMNS["t"]
        width = len(outs)
        if width <= len(other_cols):
            q = q.union_with(
                Query.from_(other).project(*other_cols[:width]),
                all=draw(st.booleans()),
            )
    if draw(st.booleans()):
        q = q.order_by(*[(c, draw(st.booleans())) for c in outs[:2]])
    if draw(st.booleans()):
        q = q.limit(draw(st.integers(0, 7)))
    return q


@st.composite
def view_cases(draw):
    views = draw(mergeable_views())
    return views, draw(view_readers(views))


def _catalog_with_views(t_rows, d_rows, views) -> Catalog:
    cat = build_catalog(t_rows, d_rows)
    for name in ("dv", "v1", "v2"):
        cat.add_view(View(name, views[name][0]))
    return cat


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(t_rows=t_rows_strategy, d_rows=d_rows_strategy, case=view_cases())
def test_view_readers_match_row_reference(t_rows, d_rows, case):
    views, reader = case
    assert_equivalent(reader, _catalog_with_views(t_rows, d_rows, views))


_UNFOLD_ROWS = [("a", 1, 2), ("b", None, 3), ("a", 4, None), ("c", 2, 2)]
_UNFOLD_DIM = [("a", 1), ("b", 2), ("a", 4)]


def test_nested_view_readers_merge_to_base_tables():
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    cat.add_view(View("v1", parse_query("SELECT g, x, z FROM t JOIN d ON g = h")))
    cat.add_view(View("v2", parse_query("SELECT g, z FROM v1")))
    for sql in (
        "SELECT * FROM v2",
        "SELECT g, COUNT(*) AS n FROM v2 WHERE z > 1 GROUP BY g ORDER BY n",
        "SELECT DISTINCT g FROM v1 WHERE x IS NOT NULL",
    ):
        query = parse_query(sql)
        merged = unfold(query, cat)
        assert (merged.source, [j.table for j in merged.joins]) == ("t", ["d"]), sql
        assert_equivalent(query, cat)
    assert unfold(parse_query("SELECT * FROM v2"), cat).select == ("g", "z")


def test_shapes_that_must_not_merge():
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    cat.add_view(View("narrow", parse_query("SELECT g FROM t")))
    # The test_view_chain_parity shapes: views with a WHERE stay boundaries.
    cat.add_view(View("v1", parse_query("SELECT g, x FROM t WHERE x IS NOT NULL")))
    cat.add_view(View("v2", parse_query("SELECT g FROM v1 WHERE x > 0")))
    cat.add_view(View("wide", parse_query("SELECT g, x FROM t")))
    # A JOIN key the right-hand view hides, and a self-join whose qualified
    # names collide: the original raises, so neither may merge.
    cat.add_view(View("dh", parse_query("SELECT h FROM d")))
    cat.add_view(View("hidden_key", parse_query("SELECT g FROM t JOIN dh ON x = z")))
    cat.add_view(
        View("self_join", Query.from_("t").join("t", [("x", "x")]).project("t.g"))
    )
    cat.add_view(View("twice", Query.from_("t").project("g", "g")))
    for sql in (
        "SELECT x FROM narrow",  # reader column absent from the view
        "SELECT g FROM narrow WHERE x > 0",
        "SELECT g FROM v1",
        "SELECT COUNT(*) AS n FROM v1 GROUP BY g",
        "SELECT g FROM v2",
        "SELECT g, z FROM wide JOIN d ON x = z",  # a reader that joins a view
        "SELECT g FROM hidden_key",
        "SELECT * FROM self_join",
        "SELECT * FROM twice",
    ):
        query = parse_query(sql)
        assert unfold(query, cat) is query, sql
        assert_equivalent(query, cat)


def test_view_chains_merge_up_to_the_depth_bound():
    """Chains merge up to ``MAX_UNFOLD_DEPTH`` views; a chain too deep for
    the resolver must keep raising its nesting error, not be merged."""
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    previous = "t"
    for level in range(1, 36):
        cat.add_view(View(f"c{level}", parse_query(f"SELECT g, x FROM {previous}")))
        previous = f"c{level}"
    merges = parse_query(f"SELECT g FROM c{MAX_UNFOLD_DEPTH}")
    assert unfold(merges, cat).source == "t"
    too_deep = parse_query(f"SELECT g FROM c{MAX_UNFOLD_DEPTH + 1}")
    assert unfold(too_deep, cat) is too_deep
    for query in (merges, too_deep, parse_query("SELECT g FROM c35")):
        assert_equivalent(query, cat)


def test_right_hand_joined_view_does_not_merge():
    """A joined view on the right of a JOIN stays a boundary: merging it
    would re-associate the join, and the ON keys may name any of its
    tables, which a left-deep join chain cannot express."""
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    e_schema = make_schema(("k", ColumnType.INT), ("w", ColumnType.STRING))
    cat.add_table(Table.from_rows("e", e_schema, [(1, "p"), (4, "q")], provider="r"))
    cat.add_view(View("de", parse_query("SELECT h, z, w FROM d JOIN e ON z = k")))
    for sql in (
        "SELECT g, h, w FROM t JOIN de ON g = h",
        "SELECT g, w FROM t JOIN de ON g = w",
    ):
        cat.add_view(View("v", parse_query(sql)), replace=True)
        query = parse_query("SELECT * FROM v")
        assert unfold(query, cat) is query
        assert_equivalent(query, cat)


def test_join_key_renamed_by_a_hidden_collision_does_not_merge():
    """``v0`` hides ``t.y``, so ``y`` names ``e.y`` in ``v1``'s original
    join but collides (and is qualified away) in the merged one; the
    merged ON clause would name a column that no longer exists."""
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    e_schema = make_schema(
        ("k", ColumnType.INT), ("y", ColumnType.INT), ("w", ColumnType.STRING)
    )
    cat.add_table(
        Table.from_rows("e", e_schema, [(1, 1, "p"), (4, 2, "q")], provider="r")
    )
    cat.add_view(View("v0", parse_query("SELECT g, x FROM t")))
    cat.add_view(
        View("v1", parse_query("SELECT g, w FROM v0 JOIN e ON x = k JOIN d ON y = z"))
    )
    query = parse_query("SELECT * FROM v1")
    assert unfold(query, cat) is query
    assert_equivalent(query, cat)
    assert len(execute_row(query, cat).rows) == 2


def test_nested_collision_that_renames_does_not_merge():
    """``v1`` hides ``d.h``; joining ``d`` again in ``v2`` collides on
    ``h`` under the name ``v1`` in the original but ``t_d`` when merged."""
    cat = build_catalog(_UNFOLD_ROWS, _UNFOLD_DIM)
    cat.add_view(View("v1", parse_query("SELECT g, h FROM t JOIN d ON g = h")))
    cat.add_view(
        View("v2", Query.from_("v1").join("d", [("g", "h")]).project("v1.h", "z"))
    )
    query = parse_query("SELECT * FROM v2")
    assert unfold(query, cat) is query
    assert_equivalent(query, cat)


# ---------------------------------------------------------------------------
# Join reuse: the plan cache's join index across inserts
# ---------------------------------------------------------------------------

E_SCHEMA = make_schema(("k", ColumnType.INT), ("w", ColumnType.STRING))

_e_rows = st.lists(st.tuples(_i, _g), min_size=0, max_size=6)

#: Readers that share the star join ``t ⋈ d ⋈ e`` (or ``t ⋈ d``), through
#: the base tables or through the ``star`` view.
_STAR_READERS = [
    "SELECT g, x, z FROM {src}",
    "SELECT g, x + z AS s FROM {src} WHERE x > 0",
    "SELECT h, COUNT(*) AS n, SUM(x) AS sx FROM {src} GROUP BY h",
    "SELECT DISTINCT h FROM {src}",
    "SELECT g, y FROM {src} WHERE y IS NOT NULL ORDER BY y DESC, g LIMIT 3",
    "SELECT COUNT(DISTINCT g) AS dg, MIN(z) AS mz FROM {src}",
]


def _star_catalog(t_rows, d_rows, e_rows, with_e: bool) -> tuple[Catalog, str]:
    cat = build_catalog(t_rows, d_rows)
    join = "t JOIN d ON g = h"
    if with_e:
        cat.add_table(Table.from_rows("e", E_SCHEMA, e_rows, provider="r"))
        join += " JOIN e ON y = k"
    cols = "g, x, y, h, z" + (", k, w" if with_e else "")
    cat.add_view(View("star", parse_query(f"SELECT {cols} FROM {join}")))
    return cat, join


def _star_queries(join: str) -> list[Query]:
    return [
        parse_query(sql.format(src=src))
        for sql in _STAR_READERS
        for src in (join, "star")
    ]


_new_or_null_key = st.sampled_from([None, "a", "b", "c", "n"])
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("t"), st.tuples(_g, _i, _i)),
        st.tuples(st.just("d"), st.tuples(_new_or_null_key, _i)),
        st.tuples(st.just("e"), st.tuples(_i, _g)),
        st.tuples(
            st.just("run"),
            st.integers(min_value=0, max_value=2 * len(_STAR_READERS) - 1),
        ),
    ),
    min_size=1,
    max_size=14,
)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    t_rows=t_rows_strategy,
    d_rows=d_rows_strategy,
    e_rows=_e_rows,
    with_e=st.booleans(),
    steps=_steps,
)
def test_join_reuse_across_inserts_matches_row_reference(
    t_rows, d_rows, e_rows, with_e, steps
):
    """Executions through a private plan cache, interleaved with inserts
    into the source and into the dimensions (new and NULL keys included),
    agree with the row reference on values, order, schema and provenance
    after every step."""
    cat, join = _star_catalog(t_rows, d_rows, e_rows, with_e)
    queries = _star_queries(join)
    config = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
    for kind, arg in steps:
        if kind == "run":
            assert_equivalent(queries[arg], cat, config)
        elif kind != "e" or with_e:
            cat.table(kind).insert(arg)
    for query in queries:
        assert_equivalent(query, cat, config)


@pytest.fixture
def vector_on():
    from repro.relational.vector import set_vector_enabled

    previous = set_vector_enabled(True)
    yield
    set_vector_enabled(previous)


_STAR_T = [("a", 1, 1), ("b", 2, None), (None, 3, 4), ("a", 4, 4), ("c", 5, 1)]
_STAR_D = [("a", 10), ("b", 20), ("a", 30)]
_STAR_E = [(1, "p"), (4, "q")]


def _star_setup():
    cat, join = _star_catalog(_STAR_T, _STAR_D, _STAR_E, True)
    cache = PlanCache()
    return cat, _star_queries(join), cache, ExecutionConfig(plan_cache=cache)


def test_source_insert_extends_the_join_index(vector_on):
    cat, queries, cache, config = _star_setup()
    joins = cache.join_index
    assert_equivalent(queries[0], cat, config)
    assert (joins.stats.misses, joins.stats.hits, joins.extends) == (1, 0, 0)
    assert_equivalent(queries[2], cat, config)
    assert (joins.stats.misses, joins.stats.hits, joins.extends) == (1, 1, 0)
    cat.table("t").insert(("b", 6, 4))
    cat.table("t").insert(("a", 7, 1))
    for query in queries:
        assert_equivalent(query, cat, config)
    # One extension over the two new rows, then hits; never a rebuild.
    assert (joins.stats.misses, joins.extends, len(joins)) == (1, 1, 1)
    assert joins.stats.hits == 1 + len(queries) - 1


def test_dimension_insert_rebuilds_the_join_index(vector_on):
    cat, queries, cache, config = _star_setup()
    joins = cache.join_index
    assert_equivalent(queries[0], cat, config)
    cat.table("d").insert(("c", 40))
    assert_equivalent(queries[1], cat, config)
    cat.table("e").insert((None, "z"))
    assert_equivalent(queries[3], cat, config)
    assert (joins.stats.misses, joins.extends) == (3, 0)


def test_replaced_table_never_reuses_the_old_entry(vector_on):
    """DDL under the same name evicts the catalog's entries, and the next
    execution joins the new table (whose tokens equal the old one's)."""
    cat, queries, cache, config = _star_setup()
    joins = cache.join_index
    assert_equivalent(queries[0], cat, config)
    assert len(joins) == 1
    swapped = [(h, z + 1) for h, z in _STAR_D]  # same size, same tokens
    cat.add_table(Table.from_rows("d", D_SCHEMA, swapped, provider="q"), replace=True)
    assert len(joins) == 0
    assert_equivalent(queries[0], cat, config)
    assert joins.stats.misses == 2


def test_join_index_entry_is_bound_to_its_table_objects():
    """A lookup whose leaf is another table object is a miss, even under
    the same key and tokens (a table replaced by a same-shaped one)."""
    t = Table.from_rows("t", T_SCHEMA, _STAR_T)
    d = Table.from_rows("d", D_SCHEMA, _STAR_D)
    twin = Table.from_rows("d", D_SCHEMA, [(h, z + 1) for h, z in _STAR_D])
    index = JoinIndex()
    key = (0, ("t", "d"), (((0,), (0,)),))
    tokens = ((5, 5), (3, 3))
    outcome, entry, fill = index.lookup(key, (t, d), tokens)
    assert (outcome, entry) == ("miss", None)
    built = JoinEntry((t, d), tokens, (), {}, T_SCHEMA, "t_d", 0)
    assert index.store(key, built, fill)
    assert index.lookup(key, (t, d), tokens)[:2] == ("hit", built)
    assert index.lookup(key, (t, twin), tokens)[:2] == ("miss", None)
    t.insert(("a", 0, 0))
    grown = ((6, 6), (3, 3))
    assert index.lookup(key, (t, d), grown)[:2] == ("extend", built)
    # A fill whose leaves moved on after its tokens were taken is dropped.
    assert not index.store(key, built, index.lookup(key, (t, d), grown)[2])
    assert index.stats.dropped_fills == 1


def test_uncached_configs_and_clear_leave_nothing_to_reuse(vector_on):
    cat, queries, cache, config = _star_setup()
    joins = cache.join_index
    for off in (
        ExecutionConfig(use_plan_cache=False, plan_cache=cache),
        ExecutionConfig(mode="row", plan_cache=cache),
    ):
        assert_equivalent(queries[0], cat, off)
    assert len(joins) == 0 and joins.stats.lookups == 0
    assert_equivalent(queries[0], cat, config)
    assert len(joins) == 1
    cache.clear()
    assert len(joins) == 0
    assert_equivalent(queries[2], cat, config)
    assert joins.stats.misses == 2 and joins.stats.hits == 0


def test_threads_sharing_one_join_index_get_the_serial_results(vector_on):
    """4 threads run the 30 unfolded scenario reports, cold (the result
    cache stores nothing), over one shared join index."""
    import sys
    import threading

    from repro.simulation.scenario import build_scenario

    scenario = build_scenario()
    cat = scenario.bi_catalog
    queries = [r.query for r in scenario.report_catalog.all_current()]
    assert len(queries) == 30
    serial = [execute(q, cat, config=ROW) for q in queries]
    cache = PlanCache(maxsize=0)
    config = ExecutionConfig(plan_cache=cache)
    results: list = [None] * 4
    errors: list = []
    barrier = threading.Barrier(4)

    def run(slot: int) -> None:
        try:
            barrier.wait()
            order = queries[slot:] + queries[:slot]
            out = [execute(q, cat, config=config) for q in order]
            results[slot] = out[-slot:] + out[:-slot] if slot else out
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert cache.join_index.stats.hits > 0
    for out in results:
        for got, ref in zip(out, serial):
            assert got.name == ref.name and got.schema == ref.schema
            assert list(got.rows) == list(ref.rows)
            assert list(got.provenance) == list(ref.provenance)
