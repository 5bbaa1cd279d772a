"""One measured simulator run in a fresh process (started by ``run.py``).

The process starts cold, as a command-line user's does: the process-wide
step-cost kernel cache and its memos are empty.  Before it loads any of
the simulator it times the calibration workload (``calibrate.py``), which
tells how fast the host runs just now.  It then builds the workload,
times the call to ``run()`` through the result JSON and load report,
times the calibration again, checks the outputs, and prints one JSON
line with what it measured.

    python3 fleetbench/child.py --workload fleet-chat --seed 0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def current_rss_kb() -> float:
    """Resident set size now (Linux ``/proc``; else the peak so far)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, ValueError, IndexError):
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _layer_metrics(recorder, result, trace, build_s: float, unattributed_s: float) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    calls = recorder.calls
    selfs = recorder.layer_self_s()
    replicas = getattr(result, "replicas", None)
    if replicas is not None:
        engine_results = [rep.result for rep in replicas]
        followups = sum(1 for r in trace if r.prefix_id is not None and r.prefix_tokens > 0)
        prefix_hit_ratio = result.prefix_hits / followups if followups else 0.0
        scale_events, retries = len(result.scale_log), result.retries
    else:
        engine_results = [result]
        prefix_hit_ratio = 0.0
        scale_events = retries = 0
    decode_steps = sum(r.decode_steps for r in engine_results)
    preemptions = sum(r.scheduler_stats.preemptions for r in engine_results)
    prefill_calls = calls("perf.kernel.prefill")
    prefill_misses = calls("perf.kernel.prefill_miss", parent="perf.kernel.prefill")
    decode_calls = calls("perf.kernel.decode_step")
    decode_misses = calls("perf.kernel.decode_coeffs", parent="perf.kernel.decode_step")
    step_calls = calls("runtime.engine.step")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "obs.metrics.gauge_sets": calls("obs.metrics.set"),
        "obs.metrics.self_s": selfs.get("obs.metrics", 0.0),
        "runtime.paged_kv.used_tokens.calls": calls("runtime.paged_kv.used_tokens"),
        "runtime.paged_kv.append_token.calls": calls("runtime.paged_kv.append_token"),
        "runtime.paged_kv.self_s": selfs.get("runtime.paged_kv", 0.0),
        "perf.kernel.prefill.calls": prefill_calls,
        "perf.kernel.prefill.misses": prefill_misses,
        "perf.kernel.prefill.hit_ratio": ratio(prefill_calls - prefill_misses, prefill_calls),
        "perf.kernel.decode.calls": decode_calls,
        "perf.kernel.decode.hit_ratio": ratio(decode_calls - decode_misses, decode_calls),
        "perf.kernel.self_s": selfs.get("perf.kernel", 0.0),
        "runtime.engine.step.calls": step_calls,
        "runtime.engine.self_s": selfs.get("runtime.engine", 0.0),
        "runtime.engine.decode_steps_per_call": ratio(decode_steps, step_calls),
        "runtime.soa.self_s": selfs.get("runtime.soa", 0.0),
        "runtime.scheduler.admit.calls": calls("runtime.scheduler.admit"),
        "runtime.scheduler.preemptions": preemptions,
        "runtime.scheduler.self_s": selfs.get("runtime.scheduler", 0.0),
        "cluster.simulator.self_s": selfs.get("cluster.simulator", 0.0),
        "cluster.simulator.replica_reads": recorder.counts["cluster.simulator.replica_reads"],
        "cluster.router.route.calls": calls("cluster.router.route"),
        "cluster.router.self_s": selfs.get("cluster.router", 0.0),
        "cluster.router.prefix_hit_ratio": prefix_hit_ratio,
        "obs.telemetry.calls": recorder.layer_calls("obs.telemetry"),
        "obs.telemetry.self_s": selfs.get("obs.telemetry", 0.0),
        "obs.profiler.calls": recorder.layer_calls("obs.profiler"),
        "obs.profiler.self_s": selfs.get("obs.profiler", 0.0),
        "control.self_s": selfs.get("control", 0.0),
        "control.scale_events": scale_events,
        "control.retries": retries,
        "report.self_s": selfs.get("report", 0.0),
        "scenarios.build_s": build_s,
        "trace.unattributed_s": unattributed_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the workload's reference")
    args = parser.parse_args(argv)

    import calibrate

    before_s = calibrate.sample()

    import numpy

    import repro.perf.kernel as kernel_mod

    import checks
    import workloads

    # Private, but the only way to see the cache: a warm kernel would hide
    # fleet-chat's prefill misses, so a run that does not start cold is void.
    cold_entries = len(getattr(kernel_mod, "_KERNEL_CACHE", ()))
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.instrument(recorder)

    build_s = 0.0

    def build_trace(build, seed):
        nonlocal build_s
        start = time.perf_counter()
        trace = build(seed)
        build_s = time.perf_counter() - start
        return trace

    prepared = workloads.PREPARE[args.workload](args.seed, build_trace)
    trace = prepared.trace
    rss_before_kb = current_rss_kb()

    spanned_before = recorder.root_s if recorder is not None else 0.0
    run_called_cpu_s = time.process_time()
    start = time.perf_counter()
    result = prepared.run()
    reported = prepared.report(result)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - run_called_cpu_s

    peak_rss_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    # Timed again, so a host whose speed changed during the run is seen
    # at both ends of it.
    after_s = calibrate.sample()
    horizon = getattr(result, "makespan_s", None)
    if horizon is None:
        horizon = result.total_time_s
    problems = checks.conservation(trace, result.requests, horizon)
    if cold_entries:
        problems.append(f"kernel cache held {cold_entries} entries before set-up")
    payload = prepared.payload(result, reported)
    reference = REFERENCE_DIR / f"{args.workload}.json.gz"
    if args.write_reference:
        if not problems:
            checks.write_reference(reference, payload)
    elif args.seed == workloads.REFERENCE_SEED:
        if reference.exists():
            problems += checks.compare(payload, checks.load_reference(reference))
        else:
            problems.append(f"missing reference {reference.name}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(trace),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # CPU seconds from process start to the run() call, calibration aside.
        "setup_cpu_s": run_called_cpu_s - sum(before_s),
        "host_slowdown": calibrate.slowdown(before_s + after_s),
        "rss_before_kb": rss_before_kb,
        "peak_rss_kb": peak_rss_kb,
        "failed_requests": checks.failed_requests(result.requests),
        "problems": problems,
        "reference_checked": args.seed == workloads.REFERENCE_SEED,
        "core": prepared.core,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        # Time in the timed region that no outermost span covers.
        unattributed_s = wall_s - (recorder.root_s - spanned_before)
        record["layers"] = _layer_metrics(recorder, result, trace, build_s, unattributed_s)
        record["spans"] = recorder.table()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
