"""Delivery benchmark: one workload through the in-process delivery daemon.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_read --seed 11 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first runs the same workload untraced in a child process (for
``trace.overhead_pct`` and the CPU figures), then runs it traced in this
process and reports the per-layer metrics; the spans go to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``. Every run also writes
its full record (settings, outcome counts, every metric, the
linearizability report) to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``. The exit code is 0 only when every
request succeeded and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench_out")

#: Process settings that would change what is measured; read at import time
#: by ``repro``, so they are dropped before it is imported.
PINNED_ENV = ("REPRO_OBS", "REPRO_FAULTS", "REPRO_ENGINE_MODE")

#: On a virtual machine, waking a thread on another vCPU adds a variable
#: delay to every daemon handoff (client -> worker -> client); measured on a
#: 2-vCPU VM it made whole runs 30-40% slower at random. Python threads
#: serialize on the GIL anyway, so the benchmark runs on one CPU.
def pin_to_one_cpu() -> int | None:
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # threads and children inherit it
    return cpu


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def select_metrics(values: dict[str, float], declared: list[dict]) -> dict[str, dict]:
    """The declared metrics, in declared order, each with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def describe(result, workload) -> dict:
    """The run record: settings, outcome counts, metrics, and checks."""
    from workloads import WORKERS

    return {
        "workload": workload.name,
        "seed": result.seed,
        "clients": workload.clients,
        "workers": WORKERS,
        "mix": workload.mix,
        "http": workload.http,
        "attempted": result.attempted,
        "failed": result.failed,
        "outcomes": dict(sorted(result.outcomes.items())),
        "wall_s": result.wall_s,
        "setups": result.setups,
        "e2e": result.e2e_metrics(),
        "process": result.process_metrics(),
        "linearizability": result.linearizability,
        "divergent": result.divergent[:20],
    }


def print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.4f} {m['unit']}")


def run_child(workload: str, seed: int, seconds: int) -> dict:
    """The untraced run in a fresh process; returns its run record."""
    path = record_path(workload, seed, 0)
    if path.exists():
        path.unlink()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
        # Set-ups and the serial replay come on top of the timed window.
        timeout=seconds + 150,
    )
    sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run exited with {proc.returncode}")
    with open(path) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKERS, WORKLOADS, run_workload

    spec = load_spec()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT_DIR.mkdir(exist_ok=True)
    cpu = pin_to_one_cpu()

    if args.trace == 0:
        result = run_workload(workload, seed=args.seed, seconds=args.seconds)
        record = describe(result, workload)
        values = record["e2e"]
        declared = spec["end_to_end"]
    else:
        from tracing import Tracer, layer_metrics, layer_shares

        baseline = run_child(args.workload, args.seed, args.seconds)
        tracer = Tracer()
        result = run_workload(workload, seed=args.seed, seconds=args.seconds, tracer=tracer)
        record = describe(result, workload)
        values = layer_metrics(tracer, result, baseline)
        record["baseline"] = baseline
        record["layers"] = values
        record["self_time_shares"] = layer_shares(tracer)
        record["spans"] = tracer.write(
            str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        )
        declared = spec["per_layer"]
        print("self-time share by span (timed requests):")
        for name, share in sorted(record["self_time_shares"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<40} {share:>8.1%}")

    record["cpu"] = cpu
    with open(record_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    metrics = select_metrics(values, declared)
    print(
        f"{workload.name}: seed {args.seed}, {workload.clients} client(s), "
        f"{WORKERS} workers, {args.seconds} s, trace {args.trace}"
    )
    print(f"  outcomes: {record['outcomes']}")
    e2e = record["e2e"]
    print(f"  failed_share: {e2e['failed_share']:.4f} ({record['failed']} of "
          f"{record['attempted']})")
    if not workload.reads_only:
        print(f"  mutate_p95_ms: {e2e['mutate_p95_ms']:.4f} ms")
    lin = record["linearizability"]
    print(f"  linearizable: {lin['ok']} ({lin['deliveries_checked']} deliveries, "
          f"{lin['mutations_checked']} mutations, {lin['refusals_checked']} refusals)")
    for violation in lin["violations"][:5] + record["divergent"][:5]:
        print(f"  VIOLATION {violation}")
    print_table("metrics:", metrics)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
