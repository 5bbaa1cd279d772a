"""Row-array attribution in :class:`StepProfiler` equals the object fold.

The profiler keeps per-request attribution as rows of one float64 array
and phase sums as plain floats.  This file keeps the object-based fold
the profiler used before (a frozen :class:`CostComponents` per event,
added per participant) and checks, over random event streams, that both
produce byte-identical ``report().to_json_dict()`` JSON and running
totals.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import CostComponents, LatencyBreakdown
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs.profiler import (
    _PHASE_ORDER,
    PhaseProfile,
    ProfileReport,
    RequestProfile,
    StepProfiler,
)
from repro.perf.phases import Deployment

_DEPLOYMENT = Deployment(
    get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
)


class _StubKernel:
    """Deterministic traffic accessors (the fold under test ignores how
    FLOPs and bytes are priced)."""

    def prefill_traffic(self, batch_size, chunk_tokens):
        return 2.5e9 * batch_size * chunk_tokens, 1.5e7 * batch_size + 3.0e9

    def decode_step_traffic(self, batch_size, span_ctx):
        return 1.6e10 * batch_size, 1.3e5 * batch_size * span_ctx + 1.6e10


class _Req:
    def __init__(self, input_tokens, output_tokens):
        self.input_tokens = input_tokens
        self.output_tokens = output_tokens


class _PhaseAcc:
    __slots__ = (
        "time_s", "events", "steps", "tokens", "flops", "bytes_moved",
        "energy_j", "components",
    )

    def __init__(self):
        self.time_s = 0.0
        self.events = 0
        self.steps = 0
        self.tokens = 0
        self.flops = 0.0
        self.bytes_moved = 0.0
        self.energy_j = 0.0
        self.components = CostComponents()


class _RequestAcc:
    __slots__ = ("time_s", "energy_j", "components")

    def __init__(self):
        self.time_s = 0.0
        self.energy_j = 0.0
        self.components = CostComponents()


class ObjectFoldProfiler(StepProfiler):
    """The object-based attribution fold, kept as the reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._phases = {}
        self._requests = {}

    def record_prefill(self, ts_s, breakdown, batch_size, chunk_tokens,
                       energy_j, requests):
        components = CostComponents.from_breakdown(breakdown)
        flops, bytes_moved = self.kernel.prefill_traffic(batch_size, chunk_tokens)
        self._fold(
            "prefill", breakdown.total_s, components,
            batch_size * chunk_tokens, flops, bytes_moved, energy_j,
            requests, steps=1,
        )

    def record_decode(self, ts_s, step_breakdown, batch_size, span_ctx,
                      steps, energy_j, requests):
        components = CostComponents.from_breakdown(step_breakdown).scaled(
            float(steps)
        )
        flops, bytes_moved = self.kernel.decode_step_traffic(batch_size, span_ctx)
        self._fold(
            "decode", step_breakdown.total_s * steps, components,
            batch_size * steps, flops * steps, bytes_moved * steps, energy_j,
            requests, steps=steps,
        )

    def _fold(self, phase, total_s, components, tokens, flops, bytes_moved,
              energy_j, requests, steps):
        acc = self._phases.get(phase)
        if acc is None:
            acc = self._phases[phase] = _PhaseAcc()
        acc.time_s += total_s
        acc.events += 1
        acc.steps += steps
        acc.tokens += tokens
        acc.flops += flops
        acc.bytes_moved += bytes_moved
        acc.energy_j += energy_j
        acc.components = acc.components + components
        if requests:
            share = 1.0 / len(requests)
            shared = components.scaled(share)
            for request in requests:
                req = self._requests.get(id(request))
                if req is None:
                    req = self._requests[id(request)] = _RequestAcc()
                req.time_s += total_s * share
                req.energy_j += energy_j * share
                req.components = req.components + shared

    def running_totals(self):
        busy_s = flops = bytes_moved = 0.0
        energy_j = self.idle_energy_j
        tokens = 0
        for acc in self._phases.values():
            busy_s += acc.time_s
            flops += acc.flops
            bytes_moved += acc.bytes_moved
            energy_j += acc.energy_j
            tokens += acc.tokens
        return {
            "busy_s": busy_s, "flops": flops, "bytes": bytes_moved,
            "energy_j": energy_j, "tokens": float(tokens),
        }

    def report(self, total_time_s, requests, name="engine"):
        dep = self.deployment
        phases = []
        for phase_name in _PHASE_ORDER:
            acc = self._phases.get(phase_name)
            if acc is None:
                continue
            phases.append(PhaseProfile(
                phase=phase_name, time_s=acc.time_s, events=acc.events,
                steps=acc.steps, tokens=acc.tokens, flops=acc.flops,
                bytes_moved=acc.bytes_moved, energy_j=acc.energy_j,
                components=acc.components,
            ))
        request_profiles = []
        for index, request in enumerate(requests):
            acc = self._requests.get(id(request)) or _RequestAcc()
            request_profiles.append(RequestProfile(
                index=index, input_tokens=request.input_tokens,
                output_tokens=request.output_tokens, time_s=acc.time_s,
                energy_j=acc.energy_j, components=acc.components,
            ))
        return ProfileReport(
            name=name, model=dep.model.name, hardware=dep.hardware.name,
            framework=dep.framework.name, num_devices=dep.num_devices,
            total_time_s=total_time_s,
            busy_s=sum(p.time_s for p in phases),
            idle_s=self.idle_s,
            energy_j=sum(p.energy_j for p in phases) + self.idle_energy_j,
            idle_energy_j=self.idle_energy_j,
            peak_flops_per_s=self.peak_flops_per_s,
            peak_bandwidth_bytes_s=self.peak_bandwidth_bytes_s,
            flop_capacity=total_time_s * self.peak_flops_per_s,
            byte_capacity=total_time_s * self.peak_bandwidth_bytes_s,
            phases=tuple(phases), requests=tuple(request_profiles),
        )


# ----------------------------------------------------------------------
# Random event streams

_LEG = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
)


@st.composite
def _breakdowns(draw):
    legs = [draw(_LEG) for _ in range(6)]
    return LatencyBreakdown(*legs, total_s=draw(_LEG))


@st.composite
def _events(draw, pool_size):
    kind = draw(st.sampled_from(("prefill", "decode", "idle")))
    members = draw(st.lists(st.integers(0, pool_size - 1), max_size=12))
    return (
        kind,
        draw(_breakdowns()),
        draw(st.integers(1, 64)),  # batch size
        draw(st.integers(1, 4096)),  # chunk tokens / span context
        draw(st.integers(1, 300)),  # decode steps
        draw(_LEG),  # energy
        members,
    )


@st.composite
def _streams(draw):
    pool_size = draw(st.integers(1, 150))
    events = draw(st.lists(_events(pool_size), max_size=60))
    return pool_size, events


def _replay(profiler, pool, events):
    now = 0.0
    for kind, bd, batch, tokens, steps, energy, members in events:
        participants = [pool[i] for i in members]
        if kind == "prefill":
            profiler.record_prefill(now, bd, batch, tokens, energy, participants)
        elif kind == "decode":
            profiler.record_decode(
                now, bd, batch, tokens, steps, energy, participants
            )
        else:
            profiler.record_idle(now, bd.total_s, energy)
        now += bd.total_s


def _run_both(pool_size, events, unseen=3):
    pool = [_Req(16 + i, 1 + i % 7) for i in range(pool_size + unseen)]
    reports = []
    for cls in (ObjectFoldProfiler, StepProfiler):
        profiler = cls(_DEPLOYMENT, kernel=_StubKernel())
        _replay(profiler, pool, events)
        reports.append((
            json.dumps(profiler.report(12.5, pool).to_json_dict(), sort_keys=True),
            profiler.running_totals(),
        ))
    return reports


def _preempted_stream():
    """Requests leave the batch (preempted) and come back (re-prefill)."""
    bd = LatencyBreakdown(0.3, 0.7, 0.11, 0.02, 0.0, 0.05, total_s=0.9)
    return 4, [
        ("prefill", bd, 4, 512, 1, 0.25, [0, 1, 2, 3]),
        ("decode", bd, 4, 600, 7, 0.1, [0, 1, 2, 3]),
        ("decode", bd, 2, 650, 3, 0.1, [0, 1]),  # 2 and 3 preempted
        ("prefill", bd, 2, 700, 1, 0.3, [2, 3]),  # and re-admitted
        ("decode", bd, 4, 700, 5, 0.1, [3, 2, 1, 0]),
    ]


@settings(max_examples=150, deadline=None)
@given(_streams())
@example(stream=_preempted_stream())
@example(stream=(1, []))
@example(stream=(2, [(
    "decode", LatencyBreakdown(), 1, 1, 1, 0.0, [0, 1],  # zero-cost event
)]))
@example(stream=(3, [(
    "prefill", LatencyBreakdown(0.1, 0.2, 0.0, 0.0, 0.0, 0.0, total_s=0.25),
    2, 8, 1, 0.5, [],  # no participants
)]))
@example(stream=(2, [(
    "decode", LatencyBreakdown(0.1, 0.3, 0.0, 0.0, 0.0, 0.0, total_s=0.35),
    2, 64, 3, 0.2, [0, 1, 0],  # a participant listed twice is charged twice
)]))
def test_row_attribution_matches_object_fold(stream):
    pool_size, events = stream
    (expected_json, expected_totals), (got_json, got_totals) = _run_both(
        pool_size, events
    )
    assert got_json == expected_json
    assert repr(got_totals) == repr(expected_totals)


def test_row_table_grows_past_64_requests():
    bd = LatencyBreakdown(0.2, 0.5, 0.1, 0.01, 0.0, 0.03, total_s=0.7)
    events = [
        ("decode", bd, 10, 900, 3, 0.4, list(range(start, start + 10)))
        for start in range(0, 191, 7)
    ]
    (expected_json, _), (got_json, _) = _run_both(200, events)
    assert got_json == expected_json
    requests = json.loads(got_json)["requests"]
    assert len(requests) == 203
    # Charged requests spread across the grown table; the three never
    # seen report zeros.
    assert requests[198]["time_s"] > 0.0
    assert all(r["time_s"] == 0.0 and r["dominant"] is None for r in requests[200:])
