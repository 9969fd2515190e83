"""Vector fast path: bitset masks round-trip and the fused kernels agree
with the row reference.

The heavyweight value/lineage/where differential lives in
``test_engine_differential.py`` (which now exercises the vector path by
default). This module pins the vector layer's own contracts:

* ``pack_rows`` / ``unpack_rows`` / ``mask_from_selector`` are mutually
  inverse encodings of ordinal sets (property-based);
* ``MaskProvenance`` decodes to exactly the reference engine's provenance;
* the fast path actually engages on eligible plans (lazy provenance marker
  on the result) and steps aside when disabled via ``set_vector_enabled``
  or the ``REPRO_VECTOR`` environment contract.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.provenance import mask_from_selector, pack_rows, unpack_rows
from repro.relational import (
    COLUMNAR,
    ROW,
    Catalog,
    ExecutionConfig,
    Table,
    execute,
    make_schema,
    parse_query,
)
from repro.relational.types import ColumnType
from repro.relational.vector import set_vector_enabled, try_vector_core

UNCACHED = ExecutionConfig(mode="columnar", use_plan_cache=False)


@pytest.fixture
def vector_on():
    """Tests of the vector tier's own contracts run it even under
    ``REPRO_VECTOR=0``, which the CI uses to exercise the other tiers."""
    previous = set_vector_enabled(True)
    yield
    set_vector_enabled(previous)


# ---------------------------------------------------------------------------
# Mask encodings (property-based round trips)
# ---------------------------------------------------------------------------


ordinal_sets = st.sets(st.integers(min_value=0, max_value=2_000), max_size=64)


@given(ordinal_sets)
def test_pack_unpack_round_trip(ordinals):
    assert unpack_rows(pack_rows(ordinals)) == sorted(ordinals)


@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_unpack_pack_round_trip(mask):
    assert pack_rows(unpack_rows(mask)) == mask


@given(st.lists(st.sampled_from([0, 1]), max_size=300))
def test_selector_mask_matches_pack(bits):
    selector = bytes(bits)
    expected = pack_rows(i for i, b in enumerate(bits) if b)
    mask = mask_from_selector(selector)
    assert mask == expected
    assert unpack_rows(mask) == [i for i, b in enumerate(bits) if b]


def test_unpack_is_sorted_and_sparse_masks_work():
    # A mask with only high bits set must not cost a full low-range scan.
    high = pack_rows([10_000, 50_000])
    assert unpack_rows(high) == [10_000, 50_000]
    assert unpack_rows(0) == []
    assert mask_from_selector(b"") == 0


# ---------------------------------------------------------------------------
# Engine parity and fast-path engagement
# ---------------------------------------------------------------------------


def _catalog() -> Catalog:
    cat = Catalog()
    schema = make_schema(
        ("k", ColumnType.INT),
        ("category", ColumnType.STRING),
        ("value", ColumnType.INT),
    )
    rows = [(i % 7, "abcde"[i % 5], (i * 37) % 100) for i in range(120)]
    cat.add_table(Table.from_rows("t", schema, rows, provider="p"))
    dim = make_schema(("k", ColumnType.INT), ("label", ColumnType.STRING))
    cat.add_table(
        Table.from_rows(
            "d", dim, [(i, f"label{i}") for i in range(7)], provider="q"
        )
    )
    return cat

QUERIES = [
    "SELECT category, value FROM t WHERE value > 40",
    "SELECT category, label FROM t JOIN d ON k = k WHERE value < 80",
    "SELECT category, COUNT(*) AS n, SUM(value) AS total FROM t GROUP BY category",
]


def _normalized(table: Table):
    return sorted(
        (row, prov.lineage, tuple(sorted(prov.where.items())))
        for row, prov in zip(table.rows, table.provenance)
    )


def test_vector_path_matches_row_reference_including_provenance():
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        reference = execute(query, cat, config=ROW)
        fused = execute(query, cat, config=UNCACHED)
        assert _normalized(fused) == _normalized(reference), sql


def test_fast_path_engages_and_yields_lazy_provenance(vector_on):
    cat = _catalog()
    for sql in QUERIES:
        query = parse_query(sql)
        assert try_vector_core(query, cat) is not None, sql
        out = execute(query, cat, config=UNCACHED)
        assert getattr(out.provenance, "lazy_provenance", False), sql


def test_set_vector_enabled_toggles_the_fast_path():
    cat = _catalog()
    query = parse_query(QUERIES[0])
    prev = set_vector_enabled(False)
    try:
        assert try_vector_core(query, cat) is None
        out = execute(query, cat, config=UNCACHED)
        # Object-columnar tier: provenance is an eagerly built list...
        assert isinstance(out.provenance, list)
    finally:
        set_vector_enabled(prev)
    # ...and results agree across tiers regardless of the toggle.
    assert _normalized(out) == _normalized(execute(query, cat, config=UNCACHED))


def test_ineligible_shapes_fall_back_cleanly():
    cat = _catalog()
    # LEFT joins stay with the object-columnar resolver.
    query = parse_query(
        "SELECT category, label FROM t LEFT JOIN d ON k = k"
    )
    assert try_vector_core(query, cat) is None
    assert _normalized(execute(query, cat, config=UNCACHED)) == _normalized(
        execute(query, cat, config=ROW)
    )


# ---------------------------------------------------------------------------
# Service coverage: every scenario report runs on the vector tier
# ---------------------------------------------------------------------------


def test_every_scenario_report_and_metareport_runs_on_the_vector_tier(vector_on):
    """Reports read meta-report views; unfolded, each is a base-table core."""
    from repro.relational import Query
    from repro.relational.plan import unfold
    from repro.simulation.scenario import build_scenario

    scenario = build_scenario()
    cat = scenario.bi_catalog
    queries = [r.query for r in scenario.report_catalog.all_current()]
    queries += [Query.from_(name) for name in cat.view_names() if name.startswith("mr_")]
    assert len(queries) == 30 + len(scenario.metareports.metareports)
    for query in queries:
        assert try_vector_core(unfold(query, cat), cat) is not None, query
        out = execute(query, cat, config=UNCACHED)
        assert getattr(out.provenance, "lazy_provenance", False), query
        assert out.name == query.source


# ---------------------------------------------------------------------------
# MaskProvenance decode memo
# ---------------------------------------------------------------------------


def test_cached_lazy_result_decodes_each_row_once(monkeypatch, vector_on):
    """A plan-cache hit shares the lazy provenance of the first run; every
    read after the first of a row, on any copy, comes from the memo."""
    from repro.provenance.masks import MaskProvenance
    from repro.relational import PlanCache

    decoded: list[int] = []
    original = MaskProvenance._decode

    def counting(self, i):
        decoded.append(i)
        return original(self, i)

    monkeypatch.setattr(MaskProvenance, "_decode", counting)
    cat = _catalog()
    config = ExecutionConfig(mode="columnar", plan_cache=PlanCache())
    query = parse_query(QUERIES[1])
    first = execute(query, cat, config=config)
    hit = execute(query, cat, config=config)
    assert hit.provenance is first.provenance
    assert config.plan_cache.stats.hits == 1
    n = len(hit.rows)
    assert n > 0 and not decoded
    list(hit.provenance)
    list(hit.provenance)
    lineages = [hit.lineage_of(i) for i in range(n)]
    assert hit.all_lineage() == first.all_lineage() == frozenset().union(*lineages)
    assert sorted(decoded) == list(range(n))


def test_shared_mask_provenance_is_thread_safe(vector_on):
    """Threads racing on one memo all read exactly the reference provenance."""
    import sys
    import threading

    cat = _catalog()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sql in QUERIES:
            query = parse_query(sql)
            reference = list(execute(query, cat, config=ROW).provenance)
            shared = execute(query, cat, config=UNCACHED).provenance
            results: list = [None] * 4
            barrier = threading.Barrier(4)

            def read(slot: int) -> None:
                barrier.wait()
                results[slot] = list(shared)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert shared.materialize() == reference, sql
            assert all(r == reference for r in results), sql
    finally:
        sys.setswitchinterval(interval)
