"""The benchmark's three workloads, each a seeded trace plus a simulator.

Every workload runs the reference deployment (LLaMA-3-8B on A100 under
vLLM) on the default execution core.  Each is an open loop in simulated
time: the seeded trace fixes every arrival instant, so the generator can
never run late, and the simulator is measured as a batch job.

``fleet-chat``
    The ``diurnal-chat`` scenario's shape (trough-to-peak sinusoidal
    envelope, ShareGPT lognormal lengths, multi-turn sessions with prefix
    reuse) with its rate scaled so 16 replicas behind ``least-outstanding``
    go from idle to past capacity at the peak.  All instrumentation is
    off.  It is the default fleet path: every arrival samples three
    gauges on each of the 16 replicas, and the lognormal prompts miss the
    kernel's prefill memo.

``engine-preempt``
    One ``ServingEngine`` with ``optimistic=True`` (vLLM's preempt-and-
    recompute admission), fixed long prompts and outputs, and an arrival
    rate that keeps the KV pool full so preemptions recur.  It grows KV
    allocations token by token and evicts, where ``fleet-chat`` reserves
    upfront and only reads, and it bypasses the router, the fleet gauges
    and prefill-memo misses.

``fleet-chaos``
    A ``flash-crowd`` arrival that overruns a four-replica starting fleet
    while crashes and slowdowns hit it, displaced requests retry once (so
    some run out of retries and fail), the ``burn-rate`` autoscaler
    (which arms telemetry) reacts, and the profiler is on.  It is the only
    workload where the control plane, telemetry and the profiler do work.

The seed draws each trace; nothing else about a workload depends on it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

DEPLOYMENT = {"model": "LLaMA-3-8B", "hardware": "A100", "framework": "vLLM"}

#: The seed whose outputs are compared with the committed references.
REFERENCE_SEED = 0

FLEET_CHAT = {
    "scenario": "diurnal-chat",
    "num_sessions": 3000,
    "trough_sessions_per_s": 1.0,
    "peak_sessions_per_s": 36.0,
    "period_s": 180.0,
    "replicas": 16,
    "router": "least-outstanding",
}

ENGINE_PREEMPT = {
    "num_requests": 250,
    "rate_rps": 1.0,
    "input_tokens": 1800,
    "output_tokens": 2200,
    "optimistic": True,
}

FLEET_CHAOS = {
    "scenario": "flash-crowd",
    "num_sessions": 3000,
    "base_rps": 10.0,
    "flash_factor": 8.0,
    "mean_input_tokens": 400.0,
    "mean_output_tokens": 160.0,
    "start_replicas": 4,
    "max_replicas": 16,
    "router": "least-outstanding",
    # Crashes and slowdowns land on the starting fleet around the flash
    # (which ramps up at t=20 s); fixing them keeps the work each seed
    # asks for comparable, while the seeded trace decides who is hit.
    "faults": [
        {"kind": "slowdown", "at_s": 18.0, "replica": "replica0", "duration_s": 10.0,
         "factor": 2.5},
        {"kind": "crash", "at_s": 24.0, "replica": "replica1"},
        {"kind": "slowdown", "at_s": 26.0, "replica": "replica2", "duration_s": 4.0,
         "factor": 2.5},
        {"kind": "crash", "at_s": 30.0, "replica": "replica2"},
        {"kind": "crash", "at_s": 36.0, "replica": "replica3"},
    ],
    "max_retries": 1,
    "autoscaler": "burn-rate",
    "profiled": True,
}

PARAMS = {
    "fleet-chat": FLEET_CHAT,
    "engine-preempt": ENGINE_PREEMPT,
    "fleet-chaos": FLEET_CHAOS,
}


@dataclass
class Prepared:
    """A workload ready to run: its trace and the calls that time it.

    ``run`` executes the simulator on the trace.  ``report`` builds the
    program's result JSON and load report from the result; the timed
    region includes it.  ``payload`` gives the JSON view the output check
    compares, from the result and what ``report`` returned.
    """

    trace: list
    run: Callable[[], object]
    report: Callable[[object], object]
    payload: Callable[[object, object], dict]
    core: str


def _deployment():
    from repro.bench.runner import BenchmarkRunner

    return BenchmarkRunner(use_engine=True).deployment(
        DEPLOYMENT["model"], DEPLOYMENT["hardware"], DEPLOYMENT["framework"]
    )


def _offered_rate(trace) -> float:
    span = trace[-1].arrival_time - trace[0].arrival_time
    return len(trace) / span if span > 0 else float(len(trace))


def _cluster_report(trace):
    offered = _offered_rate(trace)

    def report(result):
        result.load_report(offered)
        return result.to_json_dict()

    return report


def _cluster_payload(result, reported: dict) -> dict:
    return reported


def _engine_payload(result, reported) -> dict:
    """The engine's outcome in the request-row schema of the cluster JSON."""
    return {
        "total_time_s": result.total_time_s,
        "iterations": result.iterations,
        "decode_steps": result.decode_steps,
        "preemptions": result.scheduler_stats.preemptions,
        "average_power_w": result.average_power_w,
        "num_requests": len(result.requests),
        "requests": [
            {
                "input_tokens": r.input_tokens,
                "output_tokens": r.output_tokens,
                "arrival_s": r.arrival_time,
                "admit_s": r.admit_time,
                "first_token_s": r.first_token_time,
                "finish_s": r.finish_time,
                "state": r.state,
                "preemptions": r.preemptions,
            }
            for r in result.requests
        ],
    }


def prepare_fleet_chat(seed: int, build_trace: Callable) -> Prepared:
    from repro.cluster import ClusterSimulator, get_router
    from repro.scenarios import DiurnalArrivals, get_scenario

    p = FLEET_CHAT
    scenario = dataclasses.replace(
        get_scenario(p["scenario"]),
        arrival=DiurnalArrivals(
            trough_rps=p["trough_sessions_per_s"],
            peak_rps=p["peak_sessions_per_s"],
            period_s=p["period_s"],
        ),
        num_sessions=p["num_sessions"],
    )
    dep = _deployment()
    trace = build_trace(scenario.build, seed)
    sim = ClusterSimulator(
        dep, p["replicas"], router=get_router(p["router"])
    )
    return Prepared(
        trace, lambda: sim.run(trace), _cluster_report(trace), _cluster_payload, sim.core
    )


def prepare_engine_preempt(seed: int, build_trace: Callable) -> Prepared:
    from repro.runtime.engine import ServingEngine
    from repro.runtime.loadgen import summarize_requests
    from repro.runtime.workload import poisson_trace

    p = ENGINE_PREEMPT
    dep = _deployment()
    trace = build_trace(
        lambda s: poisson_trace(
            p["num_requests"], p["rate_rps"], p["input_tokens"], p["output_tokens"], seed=s
        ),
        seed,
    )
    engine = ServingEngine(dep, optimistic=p["optimistic"])
    offered = _offered_rate(trace)

    def report(result):
        summarize_requests(
            result.requests,
            result.total_time_s,
            offered,
            average_power_w=result.average_power_w,
        ).to_json_dict()
        return result.to_metrics()

    return Prepared(
        trace, lambda: engine.run(trace), report, _engine_payload, engine.core
    )


def prepare_fleet_chaos(seed: int, build_trace: Callable) -> Prepared:
    from repro.cluster import ClusterSimulator, get_router
    from repro.control import ControlPlane, FaultSchedule, RetryPolicy, get_autoscaler
    from repro.scenarios import LognormalLengths, get_scenario

    p = FLEET_CHAOS
    base = get_scenario(p["scenario"])
    scenario = dataclasses.replace(
        base,
        arrival=dataclasses.replace(
            base.arrival, base_rps=p["base_rps"], flash_factor=p["flash_factor"]
        ),
        lengths=LognormalLengths(
            mean_input_tokens=p["mean_input_tokens"],
            mean_output_tokens=p["mean_output_tokens"],
        ),
        num_sessions=p["num_sessions"],
    )
    dep = _deployment()
    trace = build_trace(scenario.build, seed)
    faults = FaultSchedule.from_json_dict({"events": p["faults"]})
    plane = ControlPlane(
        faults=faults,
        autoscaler=get_autoscaler(
            p["autoscaler"],
            min_replicas=p["start_replicas"],
            max_replicas=p["max_replicas"],
        ),
        retry=RetryPolicy(max_retries=p["max_retries"]),
    )
    sim = ClusterSimulator(
        dep,
        p["start_replicas"],
        router=get_router(p["router"]),
        control=plane,
        profiled=p["profiled"],
    )
    return Prepared(
        trace, lambda: sim.run(trace), _cluster_report(trace), _cluster_payload, sim.core
    )


PREPARE = {
    "fleet-chat": prepare_fleet_chat,
    "engine-preempt": prepare_engine_preempt,
    "fleet-chaos": prepare_fleet_chaos,
}
