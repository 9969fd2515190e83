"""The built-in metric set and the helpers hot call sites use.

Every metric the pipeline emits is registered here, once, at import time —
so instrumented code paths touch pre-resolved handles (a dict lookup plus
an add) instead of re-registering per call. The names and labels below are
a **stable contract**, documented in ``docs/OBSERVABILITY.md``:

``repro_queries_total{mode}``
    Queries executed by the relational engine, by execution mode.
``repro_cache_lookups_total{cache,result}``
    Lookups against the plan / derivability / containment / verdict caches,
    labeled hit or miss, and against the join index (``cache="join_index"``),
    labeled hit, extend (only the fact table grew; its new rows were probed)
    or miss.
``repro_enforcement_decisions_total{level,decision,rule}``
    Privacy enforcement decisions keyed by the paper's pipeline level
    (``source`` | ``warehouse`` | ``meta-report`` | ``report``), the
    decision taken (``allow``, ``deny``, ``deny_row``, ``suppress_row``,
    ``anonymize``, ``obligation``, ``deny_op``), and which rule fired.
``repro_etl_operators_total{status}``
    ETL operators ``executed`` vs ``skipped`` (PLA skip or cascade).
``repro_deliveries_total{outcome}``
    Report deliveries: ``delivered``, ``refused``, ``degraded`` (delivered
    minus an unavailable source's rows), or ``unavailable`` (refused
    because a source was down).
``repro_span_seconds{name}``
    Wall-clock latency histogram of every finished span, by span name.
``repro_retry_attempts_total{outcome}``
    Retry-loop exits: ``first_try``, ``recovered``, ``exhausted``, or
    ``aborted`` (non-retryable error).
``repro_faults_injected_total{kind}``
    Faults the :mod:`repro.resilience` injector fired, by kind.
``repro_breaker_transitions_total{state}``
    Circuit-breaker state transitions, by destination state.
``repro_breaker_state{source}``
    Current breaker state per source: 0 closed, 1 half-open, 2 open.
``repro_degraded_deliveries_total{cause}``
    Degraded deliveries by fault cause (the failure's exception type).
``repro_spans_dropped_total``
    Finished spans evicted because the tracer's retention cap was hit.
``repro_audit_anomalies_total{kind}``
    Disclosure records the auditor could not fully audit (e.g. the
    referenced report version is missing from the catalog).
``repro_service_requests_total{kind,outcome}``
    Requests processed by the delivery daemon, by request kind
    (``deliver`` | ``mutate``) and outcome (``delivered``, ``refused``,
    ``degraded``, ``applied``, ``shed``, ``error``).
``repro_service_latency_seconds{kind}``
    End-to-end daemon request latency (enqueue to completion), by kind.
``repro_service_queue_depth``
    Jobs currently waiting in the daemon's bounded queue.
``repro_service_sessions``
    Consumer sessions currently registered with the daemon.
``repro_service_epoch``
    The shared deployment's mutation epoch (bumps on every catalog/PLA/
    report mutation the daemon applies).

The ``repro_service_*`` metrics are recorded **unconditionally** by the
daemon — they are its own operational telemetry, not tracing-gated
instrumentation, so a live ``repro metrics`` scrape against a serving
process always has data.

All helpers assume the caller already checked :meth:`Tracer.active` — the
disabled path never reaches this module.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.obs.trace import TRACER, Span

__all__ = [
    "QUERIES",
    "CACHE_LOOKUPS",
    "DECISIONS",
    "ETL_OPS",
    "DELIVERIES",
    "SPAN_SECONDS",
    "RETRIES",
    "FAULTS",
    "BREAKER_TRANSITIONS",
    "BREAKER_STATE",
    "DEGRADED_DELIVERIES",
    "SPANS_DROPPED",
    "AUDIT_ANOMALIES",
    "SERVICE_REQUESTS",
    "SERVICE_LATENCY",
    "SERVICE_QUEUE_DEPTH",
    "SERVICE_SESSIONS",
    "SERVICE_EPOCH",
    "LEVEL_SOURCE",
    "LEVEL_WAREHOUSE",
    "LEVEL_METAREPORT",
    "LEVEL_REPORT",
    "cache_lookup",
    "record_decision",
]

_registry = get_registry()

#: The paper's four pipeline levels, as metric label values.
LEVEL_SOURCE = "source"
LEVEL_WAREHOUSE = "warehouse"
LEVEL_METAREPORT = "meta-report"
LEVEL_REPORT = "report"

QUERIES = _registry.counter(
    "repro_queries_total",
    "Queries executed by the relational engine.",
    ("mode",),
)
CACHE_LOOKUPS = _registry.counter(
    "repro_cache_lookups_total",
    "Result/proof/verdict cache lookups, by cache and outcome.",
    ("cache", "result"),
)
DECISIONS = _registry.counter(
    "repro_enforcement_decisions_total",
    "Privacy enforcement decisions, by pipeline level, decision, and rule.",
    ("level", "decision", "rule"),
)
ETL_OPS = _registry.counter(
    "repro_etl_operators_total",
    "ETL operators run, by outcome.",
    ("status",),
)
DELIVERIES = _registry.counter(
    "repro_deliveries_total",
    "Report delivery requests, by outcome.",
    ("outcome",),
)
SPAN_SECONDS = _registry.histogram(
    "repro_span_seconds",
    "Wall-clock seconds spent per span, by span name.",
    ("name",),
)
RETRIES = _registry.counter(
    "repro_retry_attempts_total",
    "Retry-loop exits, by outcome.",
    ("outcome",),
)
FAULTS = _registry.counter(
    "repro_faults_injected_total",
    "Faults fired by the resilience injector, by kind.",
    ("kind",),
)
BREAKER_TRANSITIONS = _registry.counter(
    "repro_breaker_transitions_total",
    "Circuit-breaker state transitions, by destination state.",
    ("state",),
)
BREAKER_STATE = _registry.gauge(
    "repro_breaker_state",
    "Breaker state per source: 0 closed, 1 half-open, 2 open.",
    ("source",),
)
DEGRADED_DELIVERIES = _registry.counter(
    "repro_degraded_deliveries_total",
    "Deliveries degraded by an unavailable source, by fault cause.",
    ("cause",),
)
SPANS_DROPPED = _registry.counter(
    "repro_spans_dropped_total",
    "Finished spans evicted at the tracer's retention cap.",
)
AUDIT_ANOMALIES = _registry.counter(
    "repro_audit_anomalies_total",
    "Disclosure records the auditor could not fully audit, by kind.",
    ("kind",),
)
SERVICE_REQUESTS = _registry.counter(
    "repro_service_requests_total",
    "Delivery-daemon requests, by kind and outcome.",
    ("kind", "outcome"),
)
SERVICE_LATENCY = _registry.histogram(
    "repro_service_latency_seconds",
    "End-to-end daemon request latency (enqueue to completion), by kind.",
    ("kind",),
)
SERVICE_QUEUE_DEPTH = _registry.gauge(
    "repro_service_queue_depth",
    "Jobs waiting in the daemon's bounded queue.",
)
SERVICE_SESSIONS = _registry.gauge(
    "repro_service_sessions",
    "Consumer sessions currently registered with the daemon.",
)
SERVICE_EPOCH = _registry.gauge(
    "repro_service_epoch",
    "Mutation epoch of the daemon's shared deployment.",
)


def cache_lookup(cache: str, hit: bool) -> None:
    """Count one cache lookup as a hit or miss."""
    CACHE_LOOKUPS.inc(1, (cache, "hit" if hit else "miss"))


def record_decision(
    level: str, decision: str, rule: str = "-", count: float = 1
) -> None:
    """Count ``count`` enforcement decisions at one pipeline level."""
    if count:
        DECISIONS.inc(count, (level, decision, rule))


def _observe_span(span: Span) -> None:
    SPAN_SECONDS.observe(span.wall_s, (span.name,))


def _count_dropped(n: int) -> None:
    SPANS_DROPPED.inc(n)


# Every finished span also lands in the latency histogram, and retention-cap
# evictions become a visible counter instead of silent data loss.
TRACER.on_finish = _observe_span
TRACER.on_drop = _count_dropped
