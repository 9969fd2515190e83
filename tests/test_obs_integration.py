"""Observability threaded through the pipeline: spans, levels, audit linkage.

Covers the end-to-end contract: disabled observability changes *nothing*
(results and audit log bytes identical to the pre-observability format),
enabled observability produces one trace per delivery whose ID lands in the
disclosure record, and enforcement decisions are counted at all four of the
paper's pipeline levels (source, warehouse, meta-report, report).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.audit import AuditLog
from repro.cli import ROLE_TO_USER
from repro.errors import ComplianceError
from repro.etl import DedupeOp, EtlFlow, EtlPlaRegistry, ExtractOp, OperationRestriction
from repro.obs import instrument
from repro.policy import SubjectRegistry
from repro.relational import parse_query
from repro.relational.execconfig import ExecutionConfig
from repro.reports.delivery import DeliveryService
from repro.sources import CellPolicy, ConsentRegistry, DataProvider, ProviderKind, SourceGateway
from repro.warehouse import PrivacyMetadataRegistry, TableAnnotation, WarehouseEnforcer

REPORT = "rpt_001"


@pytest.fixture()
def clean_obs():
    """Disabled, empty global obs state; restored afterwards."""
    previous = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.TRACER.enabled = previous
    obs.reset()


def fresh_service(scenario) -> DeliveryService:
    """A delivery service with its own audit log (session fixture stays clean)."""
    return DeliveryService(
        reports=scenario.report_catalog,
        checker=scenario.checker,
        enforcer=scenario.enforcer,
        subjects=scenario.subjects,
        audit_log=AuditLog(),
    )


def deliver_one(scenario, service: DeliveryService, report: str = REPORT):
    definition = scenario.report_catalog.current(report)
    role = sorted(definition.audience)[0]
    return service.deliver(
        report, user=ROLE_TO_USER[role], purpose=definition.purpose
    )


class TestDisabledIsInvisible:
    def test_results_identical_enabled_vs_disabled(self, scenario, clean_obs):
        off = deliver_one(scenario, fresh_service(scenario))
        obs.enable()
        on = deliver_one(scenario, fresh_service(scenario))
        obs.disable()
        assert on.table.rows == off.table.rows
        assert on.table.schema.names == off.table.schema.names
        assert on.suppressed_rows == off.suppressed_rows
        assert on.obligations_applied == off.obligations_applied

    def test_disabled_audit_record_is_pre_obs_format(self, scenario, clean_obs):
        service = fresh_service(scenario)
        deliver_one(scenario, service)
        record = service.audit_log.last()
        assert record.trace_id == ""
        # The canonical payload must not grow a field when obs is off —
        # 12 fields / 11 separators, exactly the pre-observability bytes.
        assert record.payload().count("|") == 11
        assert service.audit_log.verify_chain()

    def test_disabled_records_no_spans_or_metrics(self, scenario, clean_obs):
        deliver_one(scenario, fresh_service(scenario))
        assert list(obs.TRACER.finished) == []
        assert instrument.DELIVERIES.samples() == []
        assert instrument.QUERIES.samples() == []


class TestTraceAuditLinkage:
    def test_audit_record_carries_delivery_trace_id(self, scenario, clean_obs):
        obs.enable()
        service = fresh_service(scenario)
        deliver_one(scenario, service)
        obs.disable()
        record = service.audit_log.last()
        roots = [s for s in obs.TRACER.finished if s.name == "report.deliver"]
        assert len(roots) == 1
        assert record.trace_id == roots[0].trace_id
        assert record.trace_id in record.payload()
        assert service.audit_log.verify_chain()

    def test_delivery_trace_is_one_tree(self, scenario, clean_obs):
        obs.enable()
        service = fresh_service(scenario)
        deliver_one(scenario, service)
        obs.disable()
        (trace_id,) = obs.TRACER.trace_ids()
        spans = obs.TRACER.spans(trace_id)
        names = {s.name for s in spans}
        assert {"report.deliver", "compliance.check", "report.enforce",
                "query.execute"} <= names
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == "report.deliver"
        assert root.tags["outcome"] == "delivered"
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id  # no orphans

    def test_audit_table_exposes_trace_id_column(self, scenario, clean_obs):
        obs.enable()
        service = fresh_service(scenario)
        deliver_one(scenario, service)
        obs.disable()
        table = service.audit_log.as_table()
        assert "trace_id" in table.schema.names
        value = table.row_dict(0)["trace_id"]
        assert value == service.audit_log.last().trace_id

    def test_config_observe_forces_tracing_without_global_enable(
        self, paper_catalog, clean_obs
    ):
        assert not obs.enabled()
        query = parse_query("SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug")
        from repro.relational.engine import execute

        execute(query, paper_catalog, config=ExecutionConfig(observe=True))
        names = [s.name for s in obs.TRACER.finished]
        assert "query.execute" in names
        assert not obs.enabled()  # global state untouched

    def test_config_observe_false_suppresses_even_when_enabled(
        self, paper_catalog, clean_obs
    ):
        obs.enable()
        query = parse_query("SELECT drug FROM prescriptions")
        from repro.relational.engine import execute

        execute(query, paper_catalog, config=ExecutionConfig(observe=False))
        obs.disable()
        assert [s.name for s in obs.TRACER.finished] == []


class TestFourLevels:
    """Enforcement decisions are labeled with the paper's pipeline levels."""

    def _levels(self):
        return {labels[0] for labels, _ in instrument.DECISIONS.samples()}

    def test_source_level(self, prescriptions, policies, clean_obs):
        provider = DataProvider("hospital", ProviderKind.HOSPITAL)
        provider.add_table(prescriptions)
        provider.consents = ConsentRegistry.from_policies_table(policies)
        subjects = SubjectRegistry()
        subjects.purposes.declare("care/quality")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        gateway = SourceGateway(provider)
        gateway.add_cell_policy(CellPolicy("disease", "show_disease", action="suppress"))

        obs.enable()
        gateway.export_table("prescriptions", subjects.context("ann", "care/quality"))
        obs.disable()

        assert self._levels() == {instrument.LEVEL_SOURCE}
        samples = dict(instrument.DECISIONS.samples())
        assert samples[("source", "anonymize", "cell_policy.suppress")] >= 1
        assert any(s.name == "source.export" for s in obs.TRACER.finished)

    def test_warehouse_level(self, paper_catalog, clean_obs):
        metadata = PrivacyMetadataRegistry()
        metadata.annotate_table(
            TableAnnotation("prescriptions", min_aggregation=2)
        )
        subjects = SubjectRegistry()
        subjects.purposes.declare("care/quality")
        subjects.add_role("analyst")
        subjects.add_user("ann", "analyst")
        enforcer = WarehouseEnforcer(catalog=paper_catalog, metadata=metadata)

        obs.enable()
        enforcer.run(
            parse_query("SELECT drug, COUNT(*) AS n FROM prescriptions GROUP BY drug"),
            subjects.context("ann", "care/quality"),
        )
        obs.disable()

        assert instrument.LEVEL_WAREHOUSE in self._levels()
        assert any(s.name == "warehouse.enforce" for s in obs.TRACER.finished)

    def test_metareport_and_report_levels(self, scenario, clean_obs):
        obs.enable()
        deliver_one(scenario, fresh_service(scenario))
        obs.disable()
        levels = self._levels()
        assert instrument.LEVEL_METAREPORT in levels
        assert instrument.LEVEL_REPORT in levels
        samples = dict(instrument.DECISIONS.samples())
        # The meta-report allow names the covering meta-report.
        metareport_allows = [
            labels for labels in samples
            if labels[0] == "meta-report" and labels[1] == "allow"
        ]
        assert metareport_allows and all(l[2].startswith("mr_") for l in metareport_allows)

    def test_refused_delivery_counts_and_tags(self, scenario, clean_obs):
        service = fresh_service(scenario)
        noncompliant = [
            d.name
            for d in scenario.report_catalog.all_current()
            if not scenario.checker.check_report(d).compliant
        ]
        if not noncompliant:
            pytest.skip("scenario has no non-compliant report")
        obs.enable()
        with pytest.raises(ComplianceError):
            deliver_one(scenario, service, noncompliant[0])
        obs.disable()
        assert instrument.DELIVERIES.value(("refused",)) == 1
        (root,) = [s for s in obs.TRACER.finished if s.name == "report.deliver"]
        assert root.tags["outcome"] == "refused"

    def test_etl_level(self, prescriptions, clean_obs):
        flow = EtlFlow("tiny")
        flow.add(ExtractOp("x", prescriptions, "staged"))
        flow.add(DedupeOp("dedup", "staged", "deduped"))
        pla = EtlPlaRegistry()
        pla.add(
            OperationRestriction(
                "no-dedup", "hospital", "hospital/prescriptions",
                frozenset({"dedupe"}),
            )
        )
        obs.enable()
        result = flow.run(pla=pla)
        obs.disable()
        assert result.skipped == ["dedup"]
        samples = dict(instrument.DECISIONS.samples())
        assert samples[("warehouse", "deny_op", "etl_pla")] == 1
        assert instrument.ETL_OPS.value(("executed",)) == 1
        assert instrument.ETL_OPS.value(("skipped",)) == 1
        names = [s.name for s in obs.TRACER.finished]
        assert names.count("etl.op") == 1  # only the executed op gets a span
        assert "etl.flow" in names

    def test_join_index_outcomes_are_counted_only_while_tracing(self, clean_obs):
        from repro.relational import PlanCache, execute
        from repro.relational.vector import set_vector_enabled
        from repro.simulation.scenario import build_scenario

        fresh = build_scenario()
        cat = fresh.bi_catalog
        queries = [r.query for r in fresh.report_catalog.all_current()][:3]
        config = ExecutionConfig(plan_cache=PlanCache())
        previous = set_vector_enabled(True)
        try:
            execute(queries[0], cat, config=config)  # a miss, not counted
            assert instrument.CACHE_LOOKUPS.samples() == []
            obs.enable()
            execute(queries[1], cat, config=config)
            fact = cat.table(fresh.star.fact.name)
            fact.insert(fact.rows[0])
            execute(queries[2], cat, config=config)
            obs.disable()
        finally:
            set_vector_enabled(previous)
        samples = dict(instrument.CACHE_LOOKUPS.samples())
        joins = {k[1]: v for k, v in samples.items() if k[0] == "join_index"}
        assert joins == {"hit": 1, "extend": 1}
        assert config.plan_cache.join_index.extends == 1

    def test_cache_metrics_hit_and_miss(self, scenario, clean_obs):
        obs.enable()
        service = fresh_service(scenario)
        deliver_one(scenario, service)
        deliver_one(scenario, service)  # second pass hits warm caches
        obs.disable()
        samples = dict(instrument.CACHE_LOOKUPS.samples())
        caches = {labels[0] for labels in samples}
        assert "verdict" in caches
        assert samples.get(("verdict", "hit"), 0) >= 1
