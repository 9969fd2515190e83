"""Fast checks of the delivery benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``. Each
test runs a workload for a fraction of a second on a short schedule, so
the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Unit implied by a metric name's suffix.
SUFFIX_UNITS = {
    "_ms": "ms", "_s": "s", "_pct": "%", "_ratio": "ratio", "_rps": "1/s", "_mb": "MB",
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def quick(name: str) -> workloads.Workload:
    """The named workload on a schedule short enough to warm up fast."""
    return replace(workloads.WORKLOADS[name], requests_per_client=40)


def short_run(name: str, **kwargs) -> workloads.RunResult:
    return workloads.run_workload(
        quick(name), seed=11, seconds=0.5, **kwargs
    )


def test_declared_names_are_unique_and_units_match_suffixes():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        base = re.sub(r"\.p\d+$", "", metric["name"])
        for suffix, unit in SUFFIX_UNITS.items():
            if base.endswith(suffix):
                assert metric["unit"] == unit, metric["name"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    result = short_run("hot_read")
    assert result.correct and result.attempted > 0
    metrics = run.select_metrics(result.e2e_metrics(), SPEC["end_to_end"])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert result.e2e_metrics()["failed_share"] == 0.0


def test_traced_run_reports_every_per_layer_metric():
    tracer = tracing.Tracer()
    result = short_run("mutation_heavy", tracer=tracer)
    assert result.correct
    # The traced run stands in for its own untraced baseline here.
    baseline = {"e2e": result.e2e_metrics(), "process": result.process_metrics()}
    values = tracing.layer_metrics(tracer, result, baseline)
    metrics = run.select_metrics(values, SPEC["per_layer"])
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # Layers that run on this workload report measured, non-zero values.
    for name in ("relational.execute_ms.p50", "audit.append_ms.p50",
                 "service.mutation_apply_ms.p50", "simulation.etl_s"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("name", ["hot_read", "http_read"])
def test_a_failed_op_raises_failed_share(monkeypatch, name):
    real_set_up = workloads.set_up

    def set_up_with_one_failure(workload, seed):
        deployment = real_set_up(workload, seed)
        service = deployment.state.service
        deliver = service.deliver
        calls = []

        def deliver_failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected failure")
            return deliver(*args, **kwargs)

        service.deliver = deliver_failing_once
        return deployment

    monkeypatch.setattr(workloads, "set_up", set_up_with_one_failure)
    result = short_run(name)
    assert result.failed >= 1
    assert result.e2e_metrics()["failed_share"] > 0
    assert not result.correct


@pytest.mark.parametrize("traced", [False, True])
def test_wrappers_exist_only_in_the_traced_run(monkeypatch, traced):
    points = tracing.patch_points()
    originals = [vars(owner)[attr] for owner, attr, _ in points]
    seen = []
    real_set_up = workloads.set_up

    def spying_set_up(workload, seed):
        seen.append([vars(owner)[attr] for owner, attr, _ in points])
        return real_set_up(workload, seed)

    monkeypatch.setattr(workloads, "set_up", spying_set_up)
    tracer = tracing.Tracer() if traced else None
    short_run("hot_read", tracer=tracer)
    (during,) = seen
    if traced:
        assert all(now is not orig for now, orig in zip(during, originals))
        assert tracer.spans
    else:
        assert all(now is orig for now, orig in zip(during, originals))
    assert [vars(owner)[attr] for owner, attr, _ in points] == originals


def test_run_without_program_source_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "hot_read", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
