"""The delivery benchmark's workloads and its closed-loop runner.

Every workload drives one in-process :class:`repro.service.DeliveryDaemon`
(2 workers, resilience policy off) over the standard scenario. Clients run
a closed loop: each sends its next request only after the previous one
completed, cycling through its own schedule from
:func:`repro.service.loadgen.build_schedule` until the timed window ends.

A run is: set up (build the scenario, start the daemon, deliver every
distinct request of the schedules once so the verdict and plan caches are
warm), measure, set up a few more times only to time set-up, then check
the outputs — replay the commit and refusal logs serially with
:func:`repro.service.linearize.check_linearizable`, and on read-only
workloads demand that every request came out as it did during warm-up.
"""

from __future__ import annotations

import gc
import http.client
import json
import resource
import statistics
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServiceOverloadedError
from repro.relational.plancache import default_plan_cache
from repro.service import (
    DeliveryDaemon,
    LoadSpec,
    ServiceState,
    build_schedule,
    check_linearizable,
    percentile,
    start_http_server,
)
from repro.simulation import scenario as scenario_mod

#: Seconds a client waits for one answer before counting a timeout.
REQUEST_TIMEOUT_S = 60.0

#: Set-ups per run; ``setup_s`` is their median, the first one is measured.
SETUP_REPEATS = 5

#: Daemon worker threads on every workload.
WORKERS = 2

#: Outcomes that carry a delivered instance (their latency is ``delivered_*``).
DELIVERED = ("delivered", "degraded")


@dataclass(frozen=True)
class Workload:
    """One traffic mix. Its one-line reason is its ``why`` in BENCHMARK.json."""

    name: str
    clients: int
    mix: str  # the ``repro.service.loadgen`` mix the schedule is drawn from
    reads_only: bool  # drop the mix's mutations from the schedule
    http: bool  # send deliveries as ``POST /deliver`` over loopback
    #: Schedule length per client; clients cycle through it, so it only has
    #: to be long enough that the report mix averages out within a run.
    requests_per_client: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hot_read", clients=1, mix="read_heavy",
                 reads_only=True, http=False, requests_per_client=4000),
        Workload("mutation_heavy", clients=2, mix="mutation_heavy",
                 reads_only=False, http=False, requests_per_client=1000),
        Workload("http_read", clients=2, mix="read_heavy",
                 reads_only=True, http=True, requests_per_client=2000),
    )
}


@dataclass
class Sample:
    """One request of the timed window, as its client saw it."""

    kind: str  # "deliver" | "mutate"
    outcome: str  # a RequestResult outcome, or a failure tag
    latency_s: float
    op: tuple
    failed: bool = False


@dataclass
class Deployment:
    """One set-up deployment: scenario, daemon, schedules, warm outcomes."""

    scenario: Any
    state: ServiceState
    daemon: DeliveryDaemon
    schedules: list[list[tuple]]
    warm_outcomes: dict[tuple, str]
    timings: dict[str, float]  # build_s, warmup_s, setup_s
    http: Any = None  # the ServiceHTTPServer of an HTTP workload

    def close(self) -> None:
        if self.http is not None:
            self.http.shutdown()
            self.http.server_close()
            self.http = None
        self.daemon.stop()


@dataclass
class RunResult:
    """Everything one measured run produced."""

    workload: str
    seed: int
    samples: list[Sample]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setups: list[dict[str, float]]
    outcomes: dict[str, int]
    linearizability: dict[str, Any]
    divergent: list[str] = field(default_factory=list)
    verdict_stats: tuple[int, int] = (0, 0)  # (hits, misses) in the window
    plan_stats: tuple[int, int] = (0, 0)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        """Failed requests plus every correctness violation found after."""
        return (
            sum(s.failed for s in self.samples)
            + len(self.linearizability["violations"])
            + len(self.divergent)
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def e2e_metrics(self) -> dict[str, float]:
        """Every end-to-end metric this run measured, keyed by name."""
        completed = [s for s in self.samples if not s.failed]
        delivered = sorted(s.latency_s for s in completed if s.outcome in DELIVERED)
        mutated = sorted(s.latency_s for s in completed if s.kind == "mutate")
        return {
            "throughput_rps": len(completed) / self.wall_s,
            "delivered_p50_ms": percentile(delivered, 50) * 1e3,
            "delivered_p95_ms": percentile(delivered, 95) * 1e3,
            "mutate_p95_ms": percentile(mutated, 95) * 1e3,
            "failed_share": self.failed / max(1, self.attempted),
            "setup_s": statistics.median(s["setup_s"] for s in self.setups),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def process_metrics(self) -> dict[str, float]:
        """CPU time against requests and wall time over the timed window."""
        return {
            "process.cpu_per_request_ms": self.cpu_s * 1e3 / max(1, self.attempted),
            "process.cpu_utilisation": self.cpu_s / self.wall_s,
        }


# -- set-up ---------------------------------------------------------------------


def make_schedules(scenario, workload: Workload, seed: int) -> list[list[tuple]]:
    """Each client's op list, a pure function of the scenario and the seed."""
    spec = LoadSpec(
        consumers=workload.clients,
        requests_per_consumer=workload.requests_per_client,
        mix=workload.mix,
        seed=seed,
    )
    schedules = build_schedule(scenario, spec)
    if workload.reads_only:
        schedules = [[op for op in ops if op[0] == "deliver"] for ops in schedules]
    return schedules


def set_up(workload: Workload, seed: int) -> Deployment:
    """Build the scenario, start the daemon, and warm every distinct delivery.

    The process-wide plan cache is emptied first so every set-up starts
    from the same cache state.
    """
    default_plan_cache().clear()
    t0 = time.perf_counter()
    scenario = scenario_mod.build_scenario()
    t1 = time.perf_counter()
    state = ServiceState(scenario, factory=scenario_mod.build_scenario)
    # Serial replay needs a fault-free run, whatever the environment says.
    state.service.resilience = None
    daemon = DeliveryDaemon(state, workers=WORKERS).start()
    server = start_http_server(daemon) if workload.http else None
    schedules = make_schedules(scenario, workload, seed)
    t2 = time.perf_counter()
    warm_outcomes: dict[tuple, str] = {}
    for ops in schedules:
        for op in ops:
            if op[0] == "deliver" and op not in warm_outcomes:
                result = daemon.deliver(op[1], user=op[2], purpose=op[3])
                warm_outcomes[op] = result.outcome
    t3 = time.perf_counter()
    return Deployment(
        scenario=scenario,
        state=state,
        daemon=daemon,
        schedules=schedules,
        warm_outcomes=warm_outcomes,
        timings={"build_s": t1 - t0, "warmup_s": t3 - t2, "setup_s": t3 - t0},
        http=server,
    )


# -- clients --------------------------------------------------------------------


def _direct_client(daemon, ops, deadline, rid_base, samples, tracer) -> None:
    seq = 0
    while time.perf_counter() < deadline:
        op = ops[seq % len(ops)]
        rid = rid_base + seq
        seq += 1
        span = tracer.open_request(rid) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            if op[0] == "mutate":
                future = daemon.submit_mutation(op[1], wait=False)
            else:
                future = daemon.submit_delivery(
                    op[1], user=op[2], purpose=op[3], wait=False
                )
            outcome, failed = future.result(timeout=REQUEST_TIMEOUT_S).outcome, False
        except ServiceOverloadedError:
            outcome, failed = "shed", True
        except FutureTimeout:
            outcome, failed = "timeout", True
        except Exception as exc:  # noqa: BLE001 - a failed request, counted
            outcome, failed = f"error:{type(exc).__name__}", True
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        samples.append(Sample(op[0], outcome, latency, op, failed))


def _http_client(port, ops, deadline, rid_base, samples, tracer) -> None:
    bodies = [
        json.dumps({"report": op[1], "user": op[2], "purpose": op[3]}).encode()
        for op in ops
    ]
    seq = 0
    while time.perf_counter() < deadline:
        i = seq % len(ops)
        rid = rid_base + seq
        seq += 1
        span = tracer.open_request(rid) if tracer is not None else None
        t0 = time.perf_counter()
        # The stdlib server speaks HTTP/1.0: one request per connection.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(
                "POST", "/deliver", body=bodies[i],
                headers={"Content-Type": "application/json", "X-Request-Id": str(rid)},
            )
            response = conn.getresponse()
            payload = response.read()
            if response.status == 200:
                outcome, failed = json.loads(payload)["outcome"], False
            else:
                outcome, failed = f"http:{response.status}", True
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            outcome, failed = f"error:{type(exc).__name__}", True
        finally:
            conn.close()
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        samples.append(Sample("deliver", outcome, latency, ops[i], failed))


# -- one run --------------------------------------------------------------------


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_workload(
    workload: Workload, *, seed: int, seconds: float, tracer=None
) -> RunResult:
    """Set up, measure for ``seconds``, tear down, and check the outputs.

    With a ``tracer`` (a :class:`tracing.Tracer`) its wrappers are in place
    from the first set-up until the daemon stops, and each request gets a
    client span; without one the run carries no instrumentation at all.
    """
    if tracer is not None:
        tracer.install()
    try:
        return _run(workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run(workload, seed, seconds, tracer) -> RunResult:
    deployment = set_up(workload, seed)
    try:
        checker = deployment.scenario.checker
        plan_cache = default_plan_cache()
        verdict0 = checker.cache_stats()
        plan0 = (plan_cache.stats.hits, plan_cache.stats.misses)

        per_client: list[list[Sample]] = [[] for _ in deployment.schedules]
        if workload.http:
            target, handle = _http_client, deployment.http.server_address[1]
        else:
            target, handle = _direct_client, deployment.daemon
        cpu0 = _cpu_s()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        threads = [
            threading.Thread(
                target=target,
                args=(handle, ops, deadline, (i + 1) * 10_000_000, per_client[i], tracer),
                name=f"perfbench-client-{i}",
            )
            for i, ops in enumerate(deployment.schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - t_start
        cpu_s = _cpu_s() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict1 = checker.cache_stats()
        plan1 = (plan_cache.stats.hits, plan_cache.stats.misses)
    finally:
        deployment.close()
    warm_outcomes = deployment.warm_outcomes
    commit_log, refusal_log = deployment.state.logs_snapshot()
    setups = [deployment.timings]
    # The other set-ups come after the window, so the garbage they leave
    # does not count in its peak memory. Each old deployment is freed
    # before the next is built; left to the cyclic collector, it would stay
    # alive for a varying part of the next set-up and move its time.
    for _ in range(SETUP_REPEATS - 1):
        deployment = None
        gc.collect()
        deployment = set_up(workload, seed)
        deployment.close()
        setups.append(deployment.timings)
    if tracer is not None:
        tracer.uninstall()  # the replay below is checking, not serving

    samples = [s for per in per_client for s in per]
    outcomes: dict[str, int] = {}
    for s in samples:
        outcomes[s.outcome] = outcomes.get(s.outcome, 0) + 1
    divergent = []
    if workload.reads_only:
        for s in samples:
            expected = warm_outcomes[s.op]
            if not s.failed and s.outcome != expected:
                divergent.append(f"{s.op}: {s.outcome}, warm-up gave {expected}")
    report = check_linearizable(scenario_mod.build_scenario, commit_log, refusal_log)
    return RunResult(
        workload=workload.name,
        seed=seed,
        samples=samples,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        setups=setups,
        outcomes=outcomes,
        linearizability=report.as_dict(),
        divergent=divergent,
        verdict_stats=(
            verdict1["hits"] - verdict0["hits"],
            verdict1["misses"] - verdict0["misses"],
        ),
        plan_stats=(plan1[0] - plan0[0], plan1[1] - plan0[1]),
    )
