"""Spans around each layer's public entry points, for the traced run only.

:meth:`Tracer.install` replaces the functions listed by
:func:`patch_points` with timing wrappers, from outside the program, and
:meth:`Tracer.uninstall` puts the originals back; the untraced run never
constructs a tracer. Spans are kept in memory — name, start, end, parent
span, and the request id of the timed request that caused them — and
written out as JSON lines when the run ends.

A request's spans cross threads at the daemon handoff: the caller's
``service.daemon`` span (submit until the caller's ``future.result()``
returns, so it holds the caller's wake-up) is the parent of the worker's
``service.execute`` span, matched through the job payload the caller
enqueued. HTTP requests carry their id in an ``X-Request-Id``
header, which the handler wrapper reads.

Counts that are too frequent for spans (provenance rows decoded, vector
fast-path attempts) accumulate in per-thread counters; each
``service.execute`` span records how much they moved while it ran.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.service import percentile
from workloads import DELIVERED

#: Per-thread counters: rows decoded, decode seconds, vector calls, hits.
_ROWS, _DECODE_S, _VEC_CALLS, _VEC_HITS = range(4)


class Span:
    __slots__ = ("sid", "name", "parent", "rid", "start", "end", "extra")

    def __init__(self, sid: int, name: str, parent: int | None, rid: int | None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = time.perf_counter()
        self.end: float | None = None
        self.extra: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def patch_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Functions imported by name are wrapped at their call site (the
    importing module's attribute), which is the reference that runs.
    """
    from repro.audit.log import AuditLog
    from repro.concurrency import RWLock
    from repro.core import translation
    from repro.core.compliance import ComplianceChecker
    from repro.core.translation import ReportLevelEnforcer
    from repro.etl.flow import EtlFlow
    from repro.provenance.masks import MaskProvenance
    from repro.relational import columnar
    from repro.reports.delivery import DeliveryService
    from repro.service import httpd
    from repro.service.daemon import DeliveryDaemon
    from repro.service.state import ServiceState
    from repro.simulation import scenario

    return [
        (DeliveryDaemon, "_submit", "service.daemon"),
        (DeliveryDaemon, "_execute", "service.execute"),
        (httpd._Handler, "do_POST", "service.httpd"),
        (RWLock, "acquire_read", "service.read_lock_wait"),
        (RWLock, "acquire_write", "service.write_lock_wait"),
        (ServiceState, "apply_mutation", "service.mutation_apply"),
        (DeliveryService, "deliver", "reports.delivery"),
        (ComplianceChecker, "check_report", "core.compliance.check"),
        (ReportLevelEnforcer, "generate", "core.translation"),
        (translation, "execute", "relational.execute"),
        (columnar, "try_vector_core", "relational.vector_core"),
        (MaskProvenance, "_decode", "provenance.decode"),
        (AuditLog, "record_instance", "audit.append"),
        (EtlFlow, "run", "simulation.etl"),
        (scenario, "generate_metareports", "simulation.metareports"),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(job payload) -> the submitter's span, until a worker takes it.
        self._pending: dict[int, Span] = {}
        self._patches: list[tuple[object, str, Any]] = []

    # -- span primitives ------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counters(self) -> list[float]:
        try:
            return self._local.counters
        except AttributeError:
            self._local.counters = [0, 0.0, 0, 0]
            return self._local.counters

    def _new(self, name: str, parent: Span | None, rid: int | None) -> Span:
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        if parent is not None:
            span = Span(next(self._ids), name, parent.sid, parent.rid)
        else:
            span = Span(next(self._ids), name, None, rid)
        self.spans.append(span)
        return span

    def open(self, name: str, *, parent: Span | None = None, rid: int | None = None) -> Span:
        """Start a span on this thread; nested calls become its children."""
        span = self._new(name, parent, rid)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def open_request(self, rid: int) -> Span:
        """The client's span around one timed request."""
        return self.open("client.request", rid=rid)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _submit(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(daemon, kind, payload, **kwargs):
            span = tracer._new(name, None, None)
            tracer._pending[id(payload)] = span
            try:
                future = original(daemon, kind, payload, **kwargs)
            except BaseException:
                tracer._pending.pop(id(payload), None)
                span.end = time.perf_counter()
                raise

            wait = future.result

            def result_then_close(timeout=None):
                try:
                    return wait(timeout)
                finally:
                    if span.end is None:
                        span.end = time.perf_counter()

            future.result = result_then_close
            return future

        return wrapper

    def _execute(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(daemon, kind, payload):
            span = tracer.open(name, parent=tracer._pending.pop(id(payload), None))
            counters = tracer._counters()
            before = list(counters)
            outcome = "error"
            try:
                result = original(daemon, kind, payload)
                outcome = result.outcome
                return result
            finally:
                span.extra = {
                    "kind": kind,
                    "outcome": outcome,
                    "rows_decoded": counters[_ROWS] - before[_ROWS],
                    "decode_s": counters[_DECODE_S] - before[_DECODE_S],
                    "vector_calls": counters[_VEC_CALLS] - before[_VEC_CALLS],
                    "vector_hits": counters[_VEC_HITS] - before[_VEC_HITS],
                }
                tracer.close(span)

        return wrapper

    def _do_post(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(handler):
            try:
                rid = int(handler.headers.get("X-Request-Id", ""))
            except ValueError:
                rid = None
            span = tracer.open(name, rid=rid)
            try:
                return original(handler)
            finally:
                tracer.close(span)

        return wrapper

    def _vector_core(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(query, catalog):
            result = original(query, catalog)
            counters = tracer._counters()
            counters[_VEC_CALLS] += 1
            counters[_VEC_HITS] += result is not None
            return result

        return wrapper

    def _decode(self, original: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(provenance, i):
            t0 = time.perf_counter()
            try:
                return original(provenance, i)
            finally:
                counters = tracer._counters()
                counters[_ROWS] += 1
                counters[_DECODE_S] += time.perf_counter() - t0

        return wrapper

    _SPECIAL = {
        "service.daemon": "_submit",
        "service.execute": "_execute",
        "service.httpd": "_do_post",
        "relational.vector_core": "_vector_core",
        "provenance.decode": "_decode",
    }

    def install(self) -> None:
        """Wrap every patch point; a second install without uninstall raises."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in patch_points():
            original = vars(owner)[attr]
            make = getattr(self, self._SPECIAL.get(name, "_timed"))
            setattr(owner, attr, functools.wraps(original)(make(original, name)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every span as one JSON line; times are seconds from start."""
        t0 = self.t0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "rid": s.rid,
                    "start": round(s.start - t0, 7),
                    "end": None if s.end is None else round(s.end - t0, 7),
                    **(s.extra or {}),
                }, separators=(",", ":")) + "\n")
        return len(self.spans)


# -- per-layer metrics ------------------------------------------------------------


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it its (sequential) children cover."""
    covered = 0.0
    for child in children:
        if child.end is not None and span.end is not None:
            covered += max(0.0, min(child.end, span.end) - max(child.start, span.start))
    return span.duration - covered


def _ms(values: list[float], q: float) -> float:
    return percentile(sorted(values), q) * 1e3


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def layer_metrics(tracer: Tracer, result, baseline: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer never ran).

    Only spans of timed requests count; set-up spans feed the
    ``simulation.*`` metrics. ``baseline`` is the run record of the same
    workload run untraced: the CPU figures come from it, because tracing
    inflates them, and ``trace.overhead_pct`` compares the two throughputs.
    """
    by_id = {s.sid: s for s in tracer.spans}
    children = _children(tracer.spans)
    timed: dict[str, list[Span]] = defaultdict(list)
    setup: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        (timed if s.rid is not None else setup)[s.name].append(s)

    executes = timed["service.execute"]
    queue_wait = [
        by_id[e.parent].duration - e.duration
        for e in executes
        if e.parent is not None and by_id[e.parent].end is not None
    ]
    # Refused deliveries never reach the engine; counting them would dilute
    # the decode figures by the refusal share.
    deliveries = [e for e in executes if e.extra and e.extra["outcome"] in DELIVERED]
    daemon_by_rid = {s.rid: s for s in timed["service.daemon"]}
    client_by_rid = {s.rid: s for s in timed["client.request"]}
    httpd = [
        client_by_rid[h.rid].duration - daemon_by_rid[h.rid].duration
        for h in timed["service.httpd"]
        if h.rid in client_by_rid and h.rid in daemon_by_rid
    ]
    vector_calls = sum(e.extra["vector_calls"] for e in executes if e.extra)
    vector_hits = sum(e.extra["vector_hits"] for e in executes if e.extra)
    rows = sum(e.extra["rows_decoded"] for e in deliveries)
    verdict_hits, verdict_misses = result.verdict_stats
    plan_hits, plan_misses = result.plan_stats

    def durations(name: str) -> list[float]:
        return [s.duration for s in timed[name]]

    def self_times(name: str) -> list[float]:
        return [_self_time(s, children[s.sid]) for s in timed[name]]

    def setup_median(name: str) -> float:
        spans = setup[name]
        return statistics.median(s.duration for s in spans) if spans else 0.0

    e2e = result.e2e_metrics()
    untraced_rps = baseline["e2e"]["throughput_rps"]
    return {
        "service.queue_wait_ms.p50": _ms(queue_wait, 50),
        "service.queue_wait_ms.p95": _ms(queue_wait, 95),
        "service.read_lock_wait_ms.p95": _ms(durations("service.read_lock_wait"), 95),
        "service.write_lock_wait_ms.p95": _ms(durations("service.write_lock_wait"), 95),
        "service.mutation_apply_ms.p50": _ms(durations("service.mutation_apply"), 50),
        "service.httpd_ms.p50": _ms(httpd, 50),
        "mutate_p95_ms": e2e["mutate_p95_ms"],
        "reports.delivery.self_ms.p50": _ms(self_times("reports.delivery"), 50),
        "core.compliance.check_ms.p50": _ms(durations("core.compliance.check"), 50),
        "core.compliance.verdict_hit_ratio": _ratio(
            verdict_hits, verdict_hits + verdict_misses
        ),
        "core.compliance.refusals": result.outcomes.get("refused", 0),
        "core.translation.self_ms.p50": _ms(self_times("core.translation"), 50),
        "relational.execute_ms.p50": _ms(durations("relational.execute"), 50),
        "relational.execute_ms.p95": _ms(durations("relational.execute"), 95),
        "relational.plan_cache_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "relational.vector_core_hit_ratio": _ratio(vector_hits, vector_calls),
        "provenance.rows_decoded_per_delivery": rows / len(deliveries) if deliveries else 0.0,
        "provenance.decode_ms.p50": _ms([e.extra["decode_s"] for e in deliveries], 50),
        "audit.append_ms.p50": _ms(durations("audit.append"), 50),
        "simulation.build_scenario_s": statistics.median(
            s["build_s"] for s in result.setups
        ),
        "simulation.etl_s": setup_median("simulation.etl"),
        "simulation.metareports_s": setup_median("simulation.metareports"),
        "simulation.warmup_s": statistics.median(s["warmup_s"] for s in result.setups),
        **baseline["process"],
        "trace.overhead_pct": (untraced_rps - e2e["throughput_rps"]) / untraced_rps * 100,
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of summed self time over the timed requests.

    Shows which layer dominates a workload; printed, not a metric.
    """
    children = _children(tracer.spans)
    totals: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        if s.rid is not None and s.name != "client.request":
            totals[s.name] += _self_time(s, children[s.sid])
    whole = sum(totals.values())
    return {name: t / whole for name, t in sorted(totals.items())} if whole else {}
