"""The delivery daemon: a bounded queue drained by a worker pool.

Request lifecycle::

    submit() ──▶ bounded queue ──▶ worker thread
                                     ├─ deliver: state.lock.read_locked()
                                     │    service.deliver(...) → audit append
                                     └─ mutate:  state.lock.write_locked()
                                          state.apply_mutation(...) → epoch+1

Design points:

* **Bounded queue, typed shedding.** ``submit(wait=False)`` raises
  :class:`~repro.errors.ServiceOverloadedError` when the queue is full
  (counted as ``outcome="shed"``); ``wait=True`` blocks for backpressure.
  The daemon never hangs a caller silently and never drops a job it
  accepted.
* **Refusals are results, not crashes.** A compliance refusal or a
  source outage is a *typed outcome* (:class:`RequestResult`), recorded in
  the state's epoch-tagged refusal log for the linearizability replay;
  only unexpected errors propagate as exceptions through the future.
* **Unconditional telemetry.** ``repro_service_*`` metrics are the
  daemon's own operational counters — recorded regardless of whether
  tracing is enabled, so a live ``/metrics`` scrape always has data.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    ComplianceError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    SourceUnavailableError,
)
from repro.obs import instrument
from repro.relational.execconfig import get_default_config
from repro.service.state import MutationSpec, ServiceState

__all__ = ["Session", "RequestResult", "DeliveryDaemon"]

_STOP = object()


@dataclass
class Session:
    """Per-consumer delivery bookkeeping (one per registered user)."""

    consumer: str
    submitted: int = 0
    delivered: int = 0
    refused: int = 0
    errors: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _count(self, outcome: str) -> None:
        with self._lock:
            if outcome in ("delivered", "degraded"):
                self.delivered += 1
            elif outcome in ("refused", "unavailable"):
                self.refused += 1
            else:
                self.errors += 1

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "consumer": self.consumer,
                "submitted": self.submitted,
                "delivered": self.delivered,
                "refused": self.refused,
                "errors": self.errors,
            }


@dataclass(frozen=True)
class RequestResult:
    """What one daemon request came to.

    ``outcome`` ∈ {``delivered``, ``degraded``, ``refused``,
    ``unavailable``, ``applied``}; ``epoch`` is the deployment epoch the
    request observed (for mutations: the epoch it created). The delivered
    instance itself is in ``instance`` when the request was a successful
    delivery.
    """

    kind: str  # "deliver" | "mutate"
    outcome: str
    epoch: int
    detail: str = ""
    instance: Any = None  # ReportInstance | None


class DeliveryDaemon:
    """Thread-pool worker daemon over one :class:`ServiceState`."""

    def __init__(
        self,
        state: ServiceState,
        *,
        workers: int = 4,
        queue_size: int = 64,
    ) -> None:
        if workers < 1:
            raise ServiceError("daemon needs at least one worker")
        if queue_size < 1:
            raise ServiceError("queue size must be >= 1")
        self.state = state
        self.workers = workers
        self.queue_size = queue_size
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._threads: list[threading.Thread] = []
        self._sessions: dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._running = False
        self._started_at = 0.0
        self._counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "DeliveryDaemon":
        if self._running:
            raise ServiceError("daemon is already running")
        self._running = True
        self._started_at = time.monotonic()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-delivery-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, *, timeout: float | None = 10.0) -> None:
        """Drain accepted jobs, then stop every worker."""
        if not self._running:
            return
        self._running = False
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    def __enter__(self) -> "DeliveryDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # -- sessions -------------------------------------------------------------

    def session(self, consumer: str) -> Session:
        """The consumer's session, created on first use."""
        with self._sessions_lock:
            session = self._sessions.get(consumer)
            if session is None:
                session = self._sessions[consumer] = Session(consumer)
                instrument.SERVICE_SESSIONS.set(len(self._sessions))
            return session

    def sessions(self) -> tuple[Session, ...]:
        with self._sessions_lock:
            return tuple(self._sessions.values())

    # -- submission -----------------------------------------------------------

    def submit_delivery(
        self,
        report: str,
        *,
        user: str,
        purpose: str,
        wait: bool = True,
        timeout: float | None = None,
    ) -> "Future[RequestResult]":
        """Enqueue one delivery; returns a future resolving to its result."""
        session = self.session(user)
        with session._lock:
            session.submitted += 1
        return self._submit(
            "deliver", {"report": report, "user": user, "purpose": purpose},
            wait=wait, timeout=timeout,
        )

    def submit_mutation(
        self,
        spec: MutationSpec,
        *,
        wait: bool = True,
        timeout: float | None = None,
    ) -> "Future[RequestResult]":
        """Enqueue one catalog/PLA/report mutation."""
        return self._submit("mutate", {"spec": spec}, wait=wait, timeout=timeout)

    def deliver(
        self, report: str, *, user: str, purpose: str, timeout: float | None = 30.0
    ) -> RequestResult:
        """Blocking convenience: submit a delivery and await its result."""
        future = self.submit_delivery(report, user=user, purpose=purpose)
        return future.result(timeout=timeout)

    def mutate(self, spec: MutationSpec, *, timeout: float | None = 30.0) -> RequestResult:
        """Blocking convenience: submit a mutation and await its result."""
        return self.submit_mutation(spec).result(timeout=timeout)

    def _submit(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        wait: bool,
        timeout: float | None,
    ) -> "Future[RequestResult]":
        if not self._running:
            raise ServiceStoppedError("daemon is not running; call start() first")
        future: Future[RequestResult] = Future()
        job = (kind, payload, future, time.perf_counter())
        try:
            if wait:
                self._queue.put(job, timeout=timeout)
            else:
                self._queue.put_nowait(job)
        except queue.Full:
            self._count(kind, "shed")
            raise ServiceOverloadedError(
                f"job queue is full ({self.queue_size} pending); request shed"
            ) from None
        instrument.SERVICE_QUEUE_DEPTH.set(self._queue.qsize())
        return future

    # -- worker loop ----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                self._queue.task_done()
                return
            kind, payload, future, t_enqueued = job
            instrument.SERVICE_QUEUE_DEPTH.set(self._queue.qsize())
            try:
                result = self._execute(kind, payload)
            except BaseException as exc:  # noqa: BLE001 - relayed via the future
                self._count(kind, "error")
                if kind == "deliver":
                    self.session(payload["user"])._count("error")
                future.set_exception(exc)
            else:
                self._count(kind, result.outcome)
                if kind == "deliver":
                    self.session(payload["user"])._count(result.outcome)
                future.set_result(result)
            finally:
                instrument.SERVICE_LATENCY.observe(
                    time.perf_counter() - t_enqueued, (kind,)
                )
                self._queue.task_done()

    def _execute(self, kind: str, payload: dict[str, Any]) -> RequestResult:
        state = self.state
        if kind == "mutate":
            spec: MutationSpec = payload["spec"]
            with state.lock.write_locked():
                entry = state.apply_mutation(spec)
            return RequestResult(
                kind="mutate",
                outcome="applied",
                epoch=entry.epoch,
                detail=f"{spec.kind}(seed={spec.seed})",
            )
        report, user, purpose = (
            payload["report"], payload["user"], payload["purpose"],
        )
        # The read lock is held across check → enforce → audit append, so
        # this delivery observes exactly one epoch and its audit record
        # commits before any mutation that would supersede that epoch.
        with state.lock.read_locked():
            epoch = state.epoch
            try:
                instance = state.service.deliver(report, user=user, purpose=purpose)
            except SourceUnavailableError as exc:
                state.record_refusal(report, user, purpose, "unavailable")
                return RequestResult(
                    kind="deliver", outcome="unavailable", epoch=epoch,
                    detail=str(exc),
                )
            except ComplianceError as exc:
                state.record_refusal(report, user, purpose, "refused")
                return RequestResult(
                    kind="deliver", outcome="refused", epoch=epoch,
                    detail=str(exc),
                )
        outcome = "degraded" if instance.degraded else "delivered"
        return RequestResult(
            kind="deliver", outcome=outcome, epoch=epoch, instance=instance,
        )

    # -- observability --------------------------------------------------------

    def _count(self, kind: str, outcome: str) -> None:
        instrument.SERVICE_REQUESTS.inc(1, (kind, outcome))
        with self._counts_lock:
            key = f"{kind}:{outcome}"
            self._counts[key] = self._counts.get(key, 0) + 1

    def counts(self) -> dict[str, int]:
        """``{"kind:outcome": n}`` counters since start."""
        with self._counts_lock:
            return dict(self._counts)

    def stats(self) -> dict[str, Any]:
        """JSON-friendly operational snapshot (served at ``/stats``)."""
        with self.state._log_lock:
            commits = len(self.state.commit_log)
            refusals = len(self.state.refusal_log)
        return {
            "running": self._running,
            "uptime_s": round(time.monotonic() - self._started_at, 3)
            if self._running
            else 0.0,
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "epoch": self.state.epoch,
            "commits": commits,
            "refusals": refusals,
            "audit_records": len(self.state.service.audit_log),
            "outcomes": self.counts(),
            "sessions": [s.as_dict() for s in self.sessions()],
            "lock": self.state.lock.snapshot(),
            "caches": _cache_stats(),
        }

    # -- reconfiguration ------------------------------------------------------

    def set_resilience(self, resilience) -> None:
        """Swap the delivery resilience policy (e.g. inject a fault plan).

        Taken under the write lock so no in-flight delivery sees the swap
        mid-request — the fault plan applies from a clean epoch boundary.
        """
        with self.state.lock.write_locked():
            self.state.service.resilience = resilience


def _cache_stats() -> dict[str, Any]:
    """The engine caches deliveries run through: the process default
    config's plan cache and its join index (both ``None`` when the default
    config runs uncached, e.g. in row mode)."""
    cache = get_default_config().effective_plan_cache()
    if cache is None:
        return {"plan": None, "join_index": None}
    joins = cache.join_index
    return {
        "plan": {**cache.stats.as_dict(), "entries": len(cache)},
        "join_index": {
            **joins.stats.as_dict(),
            "extends": joins.extends,
            "entries": len(joins),
        },
    }
