"""Span recording around the simulator's layers, from outside the program.

:func:`instrument` replaces public callables of each layer (methods and
properties on its classes, a few module functions) with wrappers that
record a span per call: its name, its duration, and the enclosing span
that caused it.  Spans are aggregated by (enclosing span, name) in memory
while the run executes and read out when it ends
(:meth:`SpanRecorder.table`), so tracing does no I/O in the timed region.
A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  The layer of a span is its name up to the last dot,
e.g. ``runtime.paged_kv.used_tokens`` belongs to ``runtime.paged_kv``.

Counting wrappers (no clock reads) mark boundaries crossed so often that a
timed span would mostly measure itself; their time stays with the
enclosing span.
"""

from __future__ import annotations

import functools
import time


class SpanRecorder:
    """Aggregates spans by (parent span, name): calls, total and self seconds."""

    def __init__(self) -> None:
        # (parent name or None, name) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str | None, str], list] = {}
        self.counts: dict[str, int] = {}
        # Open spans, innermost last: [name, child_s].
        self._stack: list[list] = []
        self.root_s = 0.0

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records a span called ``name``."""
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        recorder = self
        by_parent: dict[str | None, list] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                caller = parent[0] if parent is not None else None
                entry = by_parent.get(caller)
                if entry is None:
                    # Wrappers of same-named methods on sibling classes share
                    # one entry per (caller, name).
                    entry = by_parent[caller] = stats.setdefault((caller, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                else:
                    recorder.root_s += duration

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` to count its calls without timing them."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def calls(self, name: str, parent: str | None = None) -> int:
        """Calls of span ``name``; only those made inside ``parent`` if given."""
        return sum(
            entry[0] for (caller, callee), entry in self.stats.items()
            if callee == name and (parent is None or caller == parent)
        )

    def layer_self_s(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for (_, name), (_, _, self_s) in self.stats.items():
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def layer_calls(self, layer: str) -> int:
        return sum(
            entry[0] for (_, name), entry in self.stats.items()
            if name.rsplit(".", 1)[0] == layer
        )

    def table(self) -> list[dict]:
        """Per-(parent, span) aggregate by self time, for writing out once
        the run has ended."""
        rows = [
            {"parent": parent, "span": name, "calls": calls, "total_s": total,
             "self_s": self_s}
            for (parent, name), (calls, total, self_s) in self.stats.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def _patch_methods(recorder: SpanRecorder, layer: str, cls, names) -> None:
    """Span every listed callable that ``cls`` itself defines."""
    for attr in names:
        member = cls.__dict__.get(attr)
        if member is None:
            continue
        span_name = f"{layer}.{attr}"
        if isinstance(member, property):
            setattr(cls, attr, property(recorder.span(span_name, member.fget)))
        else:
            setattr(cls, attr, recorder.span(span_name, member))


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer's public callables; call before building anything."""
    import repro.cluster.simulator as simulator_mod
    import repro.perf.kernel as kernel_mod
    import repro.runtime.loadgen as loadgen_mod
    from repro.cluster.router import Router
    from repro.cluster.simulator import ClusterResult, ClusterSimulator, Replica
    from repro.control.autoscale import AutoscalePolicy, TelemetryFleetView
    from repro.control.faults import FaultSchedule, RetryPolicy
    from repro.control.plane import ControlPlane
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.obs.profiler import NullProfiler, StepProfiler
    from repro.obs.telemetry import NULL_TELEMETRY, TelemetryHub
    from repro.perf.kernel import StepCostKernel
    from repro.runtime.engine import EngineResult, EngineRun, ServingEngine
    from repro.runtime.paged_kv import KVAllocator
    from repro.runtime.scheduler import Scheduler
    from repro.runtime.soa import RequestTable

    patch = functools.partial(_patch_methods, recorder)

    patch("perf.kernel", StepCostKernel, ("prefill", "decode_step", "decode_coeffs",
                                          "prefill_traffic", "decode_step_traffic"))
    # A prefill-memo miss is the one place the kernel evaluates the
    # roofline prefill model; a decode-memo miss is the one place
    # ``decode_step`` asks for decode coefficients.
    kernel_mod.prefill_breakdown = recorder.span(
        "perf.kernel.prefill_miss", kernel_mod.prefill_breakdown
    )

    patch("runtime.engine", ServingEngine, ("run", "start"))
    patch("runtime.engine", EngineRun, ("submit", "step", "result"))
    for cls in _subclasses(Scheduler):
        patch("runtime.scheduler", cls, ("submit", "admit", "preempt", "retire_finished",
                                         "arrived_count", "next_future_arrival"))
    for cls in _subclasses(KVAllocator):
        patch("runtime.paged_kv", cls, ("can_admit", "admit", "append_token", "free",
                                        "used_tokens", "context_tokens"))
    patch("runtime.soa", RequestTable, ("append", "sync_tail", "drop", "compact", "clear",
                                        "min_remaining", "context_sum", "finished_rows",
                                        "commit_decode", "commit_rider_chunk",
                                        "generated_of", "flush"))

    patch("cluster.simulator", ClusterSimulator, ("run",))
    for attr in ("now", "has_work", "outstanding_tokens", "queue_depth", "kv_used_fraction"):
        prop = Replica.__dict__[attr]
        setattr(Replica, attr, property(
            recorder.count("cluster.simulator.replica_reads", prop.fget)
        ))
    for cls in _subclasses(Router):
        patch("cluster.router", cls, ("route",))

    patch("obs.metrics", MetricsRegistry, ("counter", "gauge", "histogram", "snapshot"))
    patch("obs.metrics", Counter, ("inc",))
    patch("obs.metrics", Gauge, ("set",))
    patch("obs.metrics", Histogram, ("record",))

    telemetry_api = ("series", "sample", "slo_for", "record_completion",
                     "windowed_attainment", "windowed_ttft_p95", "burn_rates",
                     "tick", "finish", "snapshot")
    patch("obs.telemetry", TelemetryHub, telemetry_api)
    patch("obs.telemetry", type(NULL_TELEMETRY), telemetry_api)
    profiler_api = ("record_prefill", "record_decode", "record_idle", "report",
                    "running_totals")
    patch("obs.profiler", NullProfiler, profiler_api)
    patch("obs.profiler", StepProfiler, profiler_api)
    simulator_mod.merge_profiles = recorder.span(
        "obs.profiler.merge_profiles", simulator_mod.merge_profiles
    )

    for cls in _subclasses(AutoscalePolicy):
        patch("control", cls, ("decide",))
    patch("control", TelemetryFleetView, ("effective_rate", "routing_scales"))
    patch("control", RetryPolicy, ("backoff_s",))
    patch("control", ControlPlane, ("warmup_s",))
    patch("control", FaultSchedule, ("kv_loss_windows",))

    patch("report", ClusterResult, ("to_json_dict", "load_report"))
    patch("report", EngineResult, ("to_metrics",))
    loadgen_mod.summarize_requests = recorder.span(
        "report.summarize_requests", loadgen_mod.summarize_requests
    )
