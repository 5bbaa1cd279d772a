"""Fleet-scale benchmark of the serving simulator's host performance.

Measures how fast the simulator itself runs (host time and memory, not
simulated time) on three seeded workloads of the reference deployment,
LLaMA-3-8B on A100 under vLLM, on the default execution core.  The
workloads and why each was chosen are in ``workloads.py`` and
``BENCHMARK.json``:

* ``fleet-chat``: 16 replicas behind ``least-outstanding`` on a diurnal
  multi-turn chat trace that goes from idle to past capacity; the default
  fleet path, all instrumentation off.
* ``engine-preempt``: one engine with preempt-and-recompute admission on
  fixed long requests that keep the KV pool full.
* ``fleet-chaos``: a flash crowd on a small fleet with crashes, slowdowns,
  retries, the burn-rate autoscaler, telemetry and the profiler.

Each measured simulator run is a fresh single-threaded process
(``child.py``), one at a time, so every run starts with an empty kernel
cache, as a command-line user's does.  A benchmark run repeats such
processes for ``--seconds`` and reports medians.  Every process checks
its outputs (``checks.py``); a failed check makes the run exit nonzero.

End-to-end metrics (``--trace 0``), median over the processes of a run.
Host times are CPU seconds of the single-threaded process, which equal
its wall seconds on an idle core but do not count time other processes
take from it, scaled to the reference host's speed: each is divided by
the host slowdown its process measured before loading the simulator and
after the run (``calibrate.py``), so a shared host slowing down for a
while does not read as a change of the simulator.  The unscaled and wall-clock rates
and the slowdown are printed beside them for reference.

* ``sim_requests_per_s``: trace requests / host seconds from the call to
  ``run()`` until the result JSON and load report are built.
* ``setup_s``: host seconds from process start to the ``run()`` call
  (interpreter start, imports, registry lookups, deployment and kernel
  construction, trace build, simulator construction).
* ``peak_rss_mb``: peak resident set size of the process.
* ``mem_kb_per_request``: (peak RSS - RSS just before ``run()``) /
  requests.
* ``completed_fraction``: simulated requests that finished / requests
  submitted; 0 when the output check fails.  Below 1 by design on
  ``fleet-chaos``, where crashes exhaust some retry budgets.

Per-layer metrics (``--trace 1``) come from processes that wrap each
layer's public callables in spans (``spans.py``), alternated with
untraced ones to give ``trace.overhead_factor``.

    python3 fleetbench/run.py                      # every workload
    python3 fleetbench/run.py --workload fleet-chat --seed 3 --seconds 30 --trace 0
    python3 fleetbench/run.py --write-reference    # refresh the seed-0 references

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts simulator processes and ``failed`` those whose check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEPLOYMENT, PARAMS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = tuple(PARAMS)
MIN_UNTRACED = 3
CHILD_TIMEOUT_S = 150.0
#: Stop starting processes once a run has lasted this long, whatever
#: ``--seconds`` says, so one run always ends within three minutes.
HARD_STOP_S = 120.0

UNITS = {
    "sim_requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mem_kb_per_request": "KB",
    "completed_fraction": "fraction",
}

def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_factor")):
        return "ratio"
    if name.endswith("per_call"):
        return "steps/call"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Pin the execution core to the program's default.
    env.pop("REPRO_ENGINE_CORE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is cached inside the checkout, so only the first process
    # compiles the sources, as after an install.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, traced: bool, extra: tuple[str, ...] = ()) -> dict:
    """Run one simulator process; returns its record plus ``process_s``."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    cmd.extend(extra)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} process exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["process_s"] = time.monotonic() - spawned_at
    return record


def end_to_end(record: dict) -> dict[str, float]:
    requests = record["requests"]
    completed = 0.0 if record["problems"] else 1.0 - record["failed_requests"] / requests
    slowdown = record["host_slowdown"]
    return {
        "sim_requests_per_s": requests * slowdown / record["cpu_s"],
        "setup_s": record["setup_cpu_s"] / slowdown,
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "mem_kb_per_request": (record["peak_rss_kb"] - record["rss_before_kb"]) / requests,
        "completed_fraction": completed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str | None:
    """HEAD of the repository this file is in, if it is in one."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the simulator's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat simulator processes for ``seconds``; returns the run summary.

    Untraced runs start processes one after another while the next one is
    expected to end within ``seconds``, and make at least three.  Traced
    runs alternate untraced and traced processes, at least one pair.
    """
    started = time.monotonic()
    runs: dict = {"untraced": [], "traced": [], "failed": 0}
    kinds = ("untraced", "traced") if traced else ("untraced",)
    minimum = 1 if traced else MIN_UNTRACED
    budget = min(seconds, HARD_STOP_S)
    while True:
        round_s = 0.0
        for kind in kinds:
            record = run_child(workload, seed, kind == "traced")
            runs["failed"] += bool(record["problems"])
            runs[kind].append(record)
            round_s += record["process_s"]
        elapsed = time.monotonic() - started
        enough = len(runs["untraced"]) >= minimum
        if (enough and elapsed + round_s > budget) or elapsed > HARD_STOP_S:
            return runs


def summarize(workload: str, seed: int, runs: dict, traced: bool) -> dict:
    records = runs["untraced"] + runs["traced"]
    attempted, failed = len(records), runs["failed"]
    first = records[0]
    provenance = {
        "workload": workload,
        "seed": seed,
        "requests": first["requests"],
        "parameters": {"deployment": DEPLOYMENT, **PARAMS[workload]},
        "core": first["core"],
        "python": first["python"],
        "numpy": first["numpy"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "reference_checked": first["reference_checked"],
        "processes": {"untraced": len(runs["untraced"]), "traced": len(runs["traced"])},
    }
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    for record in records:
        for problem in record["problems"]:
            print(f"CHECK FAILED [{workload} seed {seed}]: {problem}")

    metrics: dict[str, dict] = {}
    if not traced:
        per_process = [end_to_end(r) for r in runs["untraced"]]
        print(f"{'metric':<22}{'unit':>10}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
        for name, unit in UNITS.items():
            q1, median, q3 = quartiles([m[name] for m in per_process])
            print(f"{name:<22}{unit:>10}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{len(per_process):>4}")
            metrics[name] = {"value": median, "unit": unit}
        untraced = runs["untraced"]
        for label, unit, values in (
            ("(unscaled req/s)", "1/s", [r["requests"] / r["cpu_s"] for r in untraced]),
            ("(wall-clock req/s)", "1/s", [r["requests"] / r["wall_s"] for r in untraced]),
            ("(host slowdown)", "ratio", [r["host_slowdown"] for r in untraced]),
        ):
            q1, median, q3 = quartiles(values)
            print(f"{label:<22}{unit:>10}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}")
    else:
        layers = [r["layers"] for r in runs["traced"]]
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        values["trace.overhead_factor"] = (
            statistics.median(r["cpu_s"] for r in runs["traced"])
            / statistics.median(r["cpu_s"] for r in runs["untraced"])
        )
        print(f"{'layer metric':<40}{'unit':>11}{'median':>14}{'n':>4}")
        for name in sorted(values):
            unit = layer_unit(name)
            print(f"{name:<40}{unit:>11}{values[name]:>14.6g}{len(layers):>4}")
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"spans of one traced process ({workload}), by self time:")
        print(f"  {'parent':<36}{'span':<40}{'calls':>10}{'total s':>10}{'self s':>10}")
        for row in runs["traced"][-1]["spans"]:
            print(f"  {row['parent'] or '-':<36}{row['span']:<40}{row['calls']:>10}"
                  f"{row['total_s']:>10.4f}{row['self_s']:>10.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet-scale host-performance benchmark of the serving simulator."
    )
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep measuring each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced processes")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the seed-0 reference outputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)

    if args.write_reference:
        for workload in chosen:
            record = run_child(workload, 0, False, ("--write-reference",))
            if record["problems"]:
                print(f"not written, {workload} fails its checks: {record['problems']}")
                return 1
            print(f"wrote reference/{workload}.json.gz")
        return 0

    summaries = {}
    for workload in chosen:
        print(f"== {workload} (seed {args.seed}, trace {args.trace})")
        try:
            runs = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summaries[workload] = summarize(workload, args.seed, runs, bool(args.trace))

    if len(summaries) == 1:
        final = summaries[chosen[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, s in summaries.items()
                for name, metric in s["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
