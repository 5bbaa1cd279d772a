"""Scalar ↔ vectorized bit-identity for the event core.

The vectorized core (``ServingEngine(core="vector")``) commits whole
decode spans and rider chunks against a struct-of-arrays request table;
the scalar core (``core="scalar"``) walks the same spans one token at a
time through request objects.  Everything observable — ``EngineResult``
numbers, per-request timestamps, trace events, profile reports, and the
cluster's seed-deterministic control-plane JSON — must be *bit-identical*
between the two, across the corner matrix (MI250 saturation, SN40L,
MoE EP, disaggregation, faults, autoscaling, scenarios) and across a
seeded randomized trace generator.  The scalar core is also the timed
"before" of the ``engine_vectorized``/``cluster_vectorized`` bench
entries, so this suite is what makes those speedups honest.
"""

from __future__ import annotations

import json
import math
import random
import re

import pytest

from repro.cluster import ClusterSimulator, DisaggregationSpec
from repro.control import (
    ControlPlane,
    FaultEvent,
    FaultSchedule,
    QueueDepthAutoscaler,
    RetryPolicy,
)
from repro.core.request import GenerationRequest
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.obs.tracer import EventTracer
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine, resolve_core
from repro.runtime.loadgen import summarize_requests
from repro.runtime.memory_manager import MemoryManager
from repro.runtime.paged_kv import PagedKVAllocator
from repro.runtime.workload import fixed_batch_trace, open_loop_trace, poisson_trace
from repro.scenarios import get_scenario


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", plan=None) -> Deployment:
    if plan is None:
        return Deployment(get_model(model), get_hardware(hw), get_framework(fw))
    return Deployment(
        get_model(model), get_hardware(hw), get_framework(fw), plan=plan
    )


def _clone(trace: list[GenerationRequest]) -> list[GenerationRequest]:
    return [
        GenerationRequest(
            r.input_tokens,
            r.output_tokens,
            arrival_time=r.arrival_time,
            prefix_id=r.prefix_id,
            prefix_tokens=r.prefix_tokens,
            cached_prefix_tokens=r.cached_prefix_tokens,
        )
        for r in trace
    ]


def _assert_results_identical(a, b) -> None:
    """Exact equality — no tolerance anywhere."""
    assert a.total_time_s == b.total_time_s
    assert a.iterations == b.iterations
    assert a.decode_steps == b.decode_steps
    assert a.total_tokens == b.total_tokens
    assert a.average_power_w == b.average_power_w
    assert a.mean_ttft_s == b.mean_ttft_s
    assert a.mean_itl_s == b.mean_itl_s
    assert vars(a.scheduler_stats) == vars(b.scheduler_stats)
    assert len(a.requests) == len(b.requests)
    for x, y in zip(a.requests, b.requests):
        assert x.state == y.state
        assert x.generated_tokens == y.generated_tokens
        assert x.admit_time == y.admit_time
        assert x.first_token_time == y.first_token_time
        assert x.finish_time == y.finish_time
        assert x.preemptions == y.preemptions


def _run_pair(dep: Deployment, trace, **engine_kwargs):
    scalar = ServingEngine(dep, core="scalar", **engine_kwargs).run(_clone(trace))
    vector = ServingEngine(dep, core="vector", **engine_kwargs).run(_clone(trace))
    return scalar, vector


# ----------------------------------------------------------------------
# Engine workload matrix


ENGINE_CASES = [
    pytest.param(lambda: fixed_batch_trace(8, 128, 64), {}, id="fixed-batch"),
    pytest.param(
        lambda: fixed_batch_trace(8, 32, 32),
        {"max_concurrency": 2},
        id="concurrency-waves",
    ),
    pytest.param(lambda: fixed_batch_trace(4, 64, 1), {}, id="single-token"),
    pytest.param(
        lambda: poisson_trace(
            24, rate_per_s=4.0, input_tokens=256, output_tokens=96, seed=5
        ),
        {"max_concurrency": 8},
        id="poisson-open",
    ),
    pytest.param(
        lambda: open_loop_trace(32, 4.0, 384, 160, seed=7),
        {"max_concurrency": 16},
        id="open-loop",
    ),
    pytest.param(
        lambda: [
            GenerationRequest(128, 256, arrival_time=0.0),
            GenerationRequest(4096, 8, arrival_time=0.5),
        ],
        {"max_concurrency": 4},
        id="chunked-prefill-riders",
    ),
    pytest.param(
        lambda: open_loop_trace(16, 6.0, 200, 80, seed=13),
        {"coalesce": False},
        id="uncoalesced",
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("make_trace, kwargs", ENGINE_CASES)
    def test_workload_bit_identity(self, make_trace, kwargs):
        scalar, vector = _run_pair(_dep(), make_trace(), **kwargs)
        _assert_results_identical(scalar, vector)

    def test_static_batching(self):
        dep = _dep("LLaMA-2-7B", "A100", "llama.cpp")
        scalar, vector = _run_pair(
            dep, fixed_batch_trace(6, 64, 24), max_concurrency=2
        )
        _assert_results_identical(scalar, vector)
        assert vector.scheduler_stats.admission_rounds == 3

    def test_optimistic_preemption_path(self, monkeypatch):
        """Optimistic (vLLM preempt-and-recompute) spans on the vector core
        commit in bulk between KV-pool exhaustion points and replay only
        the exhausting steps per token — a different path from the scalar
        loop, with the same results."""
        appends = {"scalar": 0, "vector": 0}
        core = ["scalar"]
        append_token = PagedKVAllocator.append_token

        def counting_append(allocator, seq_id):
            appends[core[0]] += 1
            return append_token(allocator, seq_id)

        monkeypatch.setattr(PagedKVAllocator, "append_token", counting_append)
        dep = _dep("LLaMA-2-7B")
        trace = fixed_batch_trace(24, 1800, 2200)  # overpacks the KV pool
        scalar = ServingEngine(
            dep, optimistic=True, max_concurrency=24, core="scalar"
        ).run(_clone(trace))
        core[0] = "vector"
        vector = ServingEngine(
            dep, optimistic=True, max_concurrency=24, core="vector"
        ).run(_clone(trace))
        _assert_results_identical(scalar, vector)
        assert vector.scheduler_stats.preemptions > 0
        assert appends["vector"] * 10 < appends["scalar"]


class TestCornerDeployments:
    """The paper's accelerator corners (Sections V-B/V-E)."""

    @pytest.mark.parametrize(
        "model, hw, fw, plan",
        [
            pytest.param(
                "LLaMA-2-70B", "MI250", "vLLM", ParallelismPlan(tp=4),
                id="mi250-saturation",
            ),
            pytest.param("Mistral-7B", "SN40L", "SambaFlow", None, id="sn40l"),
            pytest.param(
                "Mixtral-8x7B", "H100", "vLLM", ParallelismPlan(tp=4, ep=4),
                id="moe-ep",
            ),
            pytest.param("LLaMA-3-8B", "Gaudi2", "vLLM", None, id="gaudi2"),
        ],
    )
    def test_corner_bit_identity(self, model, hw, fw, plan):
        dep = _dep(model, hw, fw, plan=plan)
        trace = open_loop_trace(20, 3.0, 320, 96, seed=17)
        scalar, vector = _run_pair(dep, trace, max_concurrency=8)
        _assert_results_identical(scalar, vector)


def _trace_events(core: str, dep: Deployment, trace, **engine_kwargs) -> list:
    tracer = EventTracer()
    clone = _clone(trace)
    ServingEngine(dep, tracer=tracer, core=core, **engine_kwargs).run(clone)
    # request_id is a process-global counter: normalize to trace position
    # so runs compare on structure and timing.
    remap = {r.request_id: i for i, r in enumerate(clone)}
    return [
        (
            e.name,
            e.category,
            e.phase,
            e.ts_s,
            e.dur_s,
            {k: (remap[v] if k == "request_id" else v) for k, v in e.args.items()},
        )
        for e in tracer.events
    ]


def _profile_json(core: str, dep: Deployment, trace, **engine_kwargs) -> str:
    result = ServingEngine(dep, profile=True, core=core, **engine_kwargs).run(
        _clone(trace)
    )
    return json.dumps(result.profile.to_json_dict(), sort_keys=True)


class TestObservabilityEquivalence:
    def test_trace_events_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=21)
        assert _trace_events(
            "scalar", _dep(), trace, max_concurrency=8
        ) == _trace_events("vector", _dep(), trace, max_concurrency=8)

    def test_profile_reports_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=23)
        assert _profile_json(
            "scalar", _dep(), trace, max_concurrency=8
        ) == _profile_json("vector", _dep(), trace, max_concurrency=8)

    def test_metrics_gauges_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=25)
        snapshots = {}
        for core in ("scalar", "vector"):
            result = ServingEngine(
                _dep(), max_concurrency=8, tracer=EventTracer(), core=core
            ).run(_clone(trace))
            assert result.metrics is not None
            snapshots[core] = json.dumps(
                result.metrics.to_json_dict(), sort_keys=True
            )
        assert snapshots["scalar"] == snapshots["vector"]


# ----------------------------------------------------------------------
# Seeded randomized traces (hypothesis-style, reproducible)


def random_trace(seed: int, n: int = 24) -> list[GenerationRequest]:
    """Deterministic pseudo-random workload generator for equivalence
    fuzzing: bursty arrivals, heavy-tailed lengths, occasional
    single-token outputs and arrival ties."""
    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(n):
        if rng.random() < 0.3:  # burst: identical arrival time
            pass
        else:
            now += rng.expovariate(3.0)
        input_tokens = max(1, int(rng.lognormvariate(5.0, 1.0)))
        if rng.random() < 0.15:
            output_tokens = 1
        else:
            output_tokens = max(1, int(rng.lognormvariate(4.0, 0.8)))
        trace.append(
            GenerationRequest(
                min(input_tokens, 4096),
                min(output_tokens, 1024),
                arrival_time=now,
            )
        )
    return trace


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trace_bit_identity(self, seed):
        trace = random_trace(seed)
        scalar, vector = _run_pair(
            _dep(), trace, max_concurrency=4 + seed % 13
        )
        _assert_results_identical(scalar, vector)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_trace_cluster_bit_identity(self, seed):
        trace = random_trace(100 + seed, n=32)
        out = {}
        for core in ("scalar", "vector"):
            result = ClusterSimulator(
                _dep(), 3, max_concurrency=6, core=core
            ).run(_clone(trace))
            out[core] = json.dumps(result.to_json_dict(), sort_keys=True)
        assert out["scalar"] == out["vector"]


# ----------------------------------------------------------------------
# Cluster matrix: routing, disagg, faults, autoscale, scenarios


def _cluster_json(core: str, *, trace, replicas=2, **kwargs) -> str:
    result = ClusterSimulator(_dep(), replicas, core=core, **kwargs).run(
        _clone(trace)
    )
    return json.dumps(result.to_json_dict(), sort_keys=True)


class TestClusterEquivalence:
    def test_multi_replica(self):
        trace = open_loop_trace(48, 6.0, 256, 96, seed=11)
        assert _cluster_json("scalar", trace=trace, replicas=3) == _cluster_json(
            "vector", trace=trace, replicas=3
        )

    def test_single_replica_matches_engine(self):
        """A 1-replica cluster steps its engine through the same event
        horizons the standalone engine computes for itself."""
        trace = open_loop_trace(24, 4.0, 256, 64, seed=31)
        cluster = ClusterSimulator(_dep(), 1, max_concurrency=8, core="vector").run(
            _clone(trace)
        )
        engine = ServingEngine(_dep(), max_concurrency=8, core="vector").run(
            _clone(trace)
        )
        assert cluster.makespan_s == engine.total_time_s

    def test_disaggregated(self):
        trace = open_loop_trace(32, 5.0, 512, 64, seed=19)
        kwargs = dict(disaggregation=DisaggregationSpec(num_prefill_replicas=1))
        assert _cluster_json("scalar", trace=trace, **kwargs) == _cluster_json(
            "vector", trace=trace, **kwargs
        )

    def test_crash_faults_with_retry(self):
        trace = open_loop_trace(32, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (FaultEvent("crash", at_s=2.0, replica="replica1"),)
            ),
            retry=RetryPolicy(max_retries=3),
        )
        assert _cluster_json(
            "scalar", trace=trace, control=control
        ) == _cluster_json("vector", trace=trace, control=control)

    def test_all_replicas_crash_failed_conventions(self):
        """All-failed runs keep summarize_requests NaN/0 conventions
        identical across cores (the NaN-safety audit)."""
        trace = open_loop_trace(16, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (
                    FaultEvent("crash", at_s=0.2, replica="replica0"),
                    FaultEvent("crash", at_s=0.2, replica="replica1"),
                )
            ),
            retry=RetryPolicy(max_retries=1),
        )
        out = {}
        for core in ("scalar", "vector"):
            result = ClusterSimulator(_dep(), 2, core=core, control=control).run(
                _clone(trace)
            )
            assert result.failed_requests > 0
            out[core] = json.dumps(result.to_json_dict(), sort_keys=True)
        assert out["scalar"] == out["vector"]

    def test_autoscale(self):
        trace = open_loop_trace(40, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(high_watermark=2.0, max_replicas=4),
            tick_interval_s=0.25,
        )
        a = _cluster_json(
            "scalar", trace=trace, replicas=1, max_concurrency=4, control=control
        )
        b = _cluster_json(
            "vector", trace=trace, replicas=1, max_concurrency=4, control=control
        )
        assert a == b

    @pytest.mark.parametrize("name", ["chat-sharegpt", "flash-crowd"])
    def test_scenario_traces(self, name):
        trace = get_scenario(name).build(seed=5)[:64]
        kwargs = dict(replicas=2, max_concurrency=8, prefix_cache_slots=32)
        assert _cluster_json("scalar", trace=trace, **kwargs) == _cluster_json(
            "vector", trace=trace, **kwargs
        )


def _cluster_metrics(core: str, *, trace, replicas=2, **kwargs) -> dict:
    result = ClusterSimulator(_dep(), replicas, core=core, **kwargs).run(
        _clone(trace)
    )
    return result.metrics.to_json_dict()


def _crash_control(*names: str, at_s: float = 2.0) -> ControlPlane:
    return ControlPlane(
        faults=FaultSchedule(
            tuple(FaultEvent("crash", at_s=at_s, replica=n) for n in names)
        ),
        retry=RetryPolicy(max_retries=3),
    )


class TestClusterMetricsEquivalence:
    """The vector core samples the per-replica fleet gauges through a
    GaugeBank; the scalar core calls ``Gauge.set`` per replica.  Their
    metrics JSON (gauge order, int-valued samples, time-weighted means)
    must match byte for byte."""

    @pytest.mark.parametrize(
        ("case", "replicas", "kwargs"),
        [
            ("plain", 3, {}),
            ("disagg", 2, {"disaggregation": DisaggregationSpec(num_prefill_replicas=1)}),
            ("crash", 2, {"control": _crash_control("replica1")}),
            ("all_crash", 2, {"control": _crash_control("replica0", "replica1", at_s=0.2)}),
            (
                "autoscale",
                1,
                {
                    "max_concurrency": 4,
                    "control": ControlPlane(
                        autoscaler=QueueDepthAutoscaler(
                            high_watermark=2.0, max_replicas=4
                        ),
                        tick_interval_s=0.25,
                    ),
                },
            ),
        ],
    )
    def test_metrics_json_identical(self, case, replicas, kwargs):
        trace = open_loop_trace(40, 8.0, 256, 64, seed=3)
        scalar = _cluster_metrics("scalar", trace=trace, replicas=replicas, **kwargs)
        vector = _cluster_metrics("vector", trace=trace, replicas=replicas, **kwargs)
        assert json.dumps(scalar) == json.dumps(vector)
        gauges = vector["gauges"]
        if case == "autoscale":  # a scaled-up replica registered late
            assert "replica1.queue_depth" in gauges
        if case == "crash":  # the crashed replica stopped sampling
            assert (
                gauges["replica1.queue_depth"]["num_samples"]
                < gauges["replica0.queue_depth"]["num_samples"]
            )

    def test_simultaneous_arrivals(self):
        """Every arrival at t=0: the zero-span plain-mean fallback."""
        trace = fixed_batch_trace(12, 128, 32)
        scalar = _cluster_metrics("scalar", trace=trace, replicas=3)
        vector = _cluster_metrics("vector", trace=trace, replicas=3)
        assert json.dumps(scalar) == json.dumps(vector)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trace_metrics(self, seed):
        trace = random_trace(200 + seed, n=32)
        scalar = _cluster_metrics("scalar", trace=trace, replicas=4, max_concurrency=5)
        vector = _cluster_metrics("vector", trace=trace, replicas=4, max_concurrency=5)
        assert json.dumps(scalar) == json.dumps(vector)


# ----------------------------------------------------------------------
# Optimistic admission: bulk commits between KV-pool exhaustion points


@pytest.fixture
def kv_pool(monkeypatch):
    """Set every engine's KV budget (tokens) so small traces exhaust it."""

    def set_budget(tokens: int) -> None:
        monkeypatch.setattr(
            MemoryManager, "kv_budget_tokens", property(lambda self: tokens)
        )

    return set_budget


def optimistic_case(seed: int):
    """Seeded optimistic workload: a trace (all at once or Poisson-ish),
    a KV budget far below its total footprint, a block size and engine
    options.  Output budgets come from a small set so several requests
    finish on the same step; every request fits the pool alone."""
    rng = random.Random(seed)
    burst = rng.random() < 0.5
    now = 0.0
    trace = []
    for _ in range(rng.randint(8, 20)):
        if not burst and rng.random() >= 0.3:
            now += rng.expovariate(4.0)
        output_tokens = rng.choice([1, 24, 64, 64, 160, 160, 320])
        if rng.random() < 0.25:
            output_tokens += rng.randint(1, 15)
        trace.append(
            GenerationRequest(rng.randint(16, 600), output_tokens, arrival_time=now)
        )
    budget = rng.choice([1024, 1536, 2048, 3072])
    dep = _dep().with_kv_spec(KVCacheSpec(block_size=rng.choice([1, 4, 16, 32])))
    kwargs = dict(
        max_concurrency=rng.choice([4, 8, 16, None]),
        coalesce=rng.random() < 0.85,
    )
    return trace, budget, dep, kwargs


def finished_victim_case():
    """Three requests and a 15-block pool (block size 16) that runs dry
    exactly at the newest request's append on the first span's last step,
    after the middle request finished on that step: the victim search
    must skip the finished request and evict the oldest."""
    trace = [
        GenerationRequest(17, 200),  # crosses blocks at steps 16, 32, 48
        GenerationRequest(17, 50),  # same; finishes on step 49
        GenerationRequest(32, 200),  # crosses at 1, 17, 33 and 49
    ]
    return trace, 240, _dep(), {}


MATRIX_SEEDS = range(24)


def _run_drained(dep: Deployment, trace, core: str, **engine_kwargs):
    """Run to completion, checking the O(1) outstanding-token tally after
    every step; the pool must end with no sequences and no reserved
    blocks."""
    run = ServingEngine(dep, optimistic=True, core=core, **engine_kwargs).start()
    for request in sorted(trace, key=lambda r: r.arrival_time):
        run.submit(request)
    while run.has_work:
        run.step()
        assert run.outstanding_tokens == run.outstanding_tokens_scan()
    allocator = run.scheduler.allocator
    assert allocator.num_sequences == 0
    assert allocator.free_blocks == allocator.total_blocks
    return run.result(requests=list(trace))


class _ReplayProbe:
    """Records which exhaustion situations the vector core's replay hit."""

    def __init__(self, monkeypatch) -> None:
        self.seen: set[str] = set()
        self._steps = 0
        commit = ServingEngine._commit_optimistic_span
        headroom = PagedKVAllocator.lockstep_headroom
        choose = ServingEngine._choose_victim
        prefill = ServingEngine._run_prefill

        def commit_spy(engine, run, running, steps, step_s):
            self._steps = steps
            return commit(engine, run, running, steps, step_s)

        def headroom_spy(allocator, seq_ids, max_steps):
            bulk = headroom(allocator, seq_ids, max_steps)
            if bulk < max_steps and self._steps > 1:
                step = self._steps - max_steps + bulk + 1  # replayed step
                self.seen.add(
                    "first-step" if step == 1
                    else "last-step" if step == self._steps
                    else "mid-span"
                )
            return bulk

        def choose_spy(scheduler, protect):
            victim = choose(scheduler, protect)
            running = scheduler.running
            if running[-1] is protect:
                self.seen.add("newest-grows")
            if victim is not None:
                at = next(i for i, r in enumerate(running) if r is victim)
                if any(r.is_finished for r in running[at + 1:]):
                    self.seen.add("finished-skipped")
            return victim

        def prefill_spy(engine, run, admitted, decoding, riders):
            if riders and run.scheduler.stats.preemptions:
                self.seen.add("riders")
            return prefill(engine, run, admitted, decoding, riders)

        monkeypatch.setattr(ServingEngine, "_commit_optimistic_span", commit_spy)
        monkeypatch.setattr(PagedKVAllocator, "lockstep_headroom", headroom_spy)
        monkeypatch.setattr(ServingEngine, "_choose_victim", staticmethod(choose_spy))
        monkeypatch.setattr(ServingEngine, "_run_prefill", prefill_spy)


class TestOptimisticEquivalence:
    @pytest.mark.parametrize("seed", MATRIX_SEEDS)
    def test_random_optimistic_bit_identity(self, kv_pool, seed):
        trace, budget, dep, kwargs = optimistic_case(seed)
        kv_pool(budget)
        scalar = _run_drained(dep, _clone(trace), "scalar", **kwargs)
        vector = _run_drained(dep, _clone(trace), "vector", **kwargs)
        _assert_results_identical(scalar, vector)

    def test_finished_request_skipped_as_victim(self, kv_pool):
        trace, budget, dep, kwargs = finished_victim_case()
        kv_pool(budget)
        scalar = _run_drained(dep, _clone(trace), "scalar", **kwargs)
        vector = _run_drained(dep, _clone(trace), "vector", **kwargs)
        _assert_results_identical(scalar, vector)
        oldest, middle, _ = vector.requests
        assert oldest.preemptions >= 1
        assert middle.preemptions == 0  # finished when the pool ran dry

    def test_matrix_hits_every_exhaustion_position(self, kv_pool, monkeypatch):
        """The matrix above replays exhaustion on a span's first, middle
        and last step, with the newest request growing, finished requests
        skipped as victims, and chunked-prefill riders in play."""
        probe = _ReplayProbe(monkeypatch)
        cases = [optimistic_case(seed) for seed in MATRIX_SEEDS]
        for trace, budget, dep, kwargs in cases + [finished_victim_case()]:
            kv_pool(budget)
            _run_drained(dep, _clone(trace), "vector", **kwargs)
        assert probe.seen == {
            "first-step", "mid-span", "last-step",
            "newest-grows", "finished-skipped", "riders",
        }

    def test_trace_events_identical_under_preemption(self, kv_pool):
        """Preempt instants and kv_alloc samples take the tracer clock,
        which the bulk path must leave where the per-token loop does."""
        trace, budget, dep, kwargs = optimistic_case(3)
        kv_pool(budget)
        kwargs.update(optimistic=True)
        scalar = _trace_events("scalar", dep, trace, **kwargs)
        assert scalar == _trace_events("vector", dep, trace, **kwargs)
        assert any(name == "preempt" for name, *_ in scalar)

    def test_profile_reports_identical_under_preemption(self, kv_pool):
        trace, budget, dep, kwargs = optimistic_case(4)
        kv_pool(budget)
        kwargs.update(optimistic=True)
        assert _profile_json("scalar", dep, trace, **kwargs) == _profile_json(
            "vector", dep, trace, **kwargs
        )

    def test_cluster_crash_retry_optimistic(self, kv_pool):
        kv_pool(2048)
        trace = open_loop_trace(32, 8.0, 256, 160, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (FaultEvent("crash", at_s=2.0, replica="replica1"),)
            ),
            retry=RetryPolicy(max_retries=3),
        )
        out = {}
        for core in ("scalar", "vector"):
            out[core] = _cluster_json(
                core, trace=trace, optimistic=True, max_concurrency=16,
                control=control,
            )
        assert out["scalar"] == out["vector"]
        result = json.loads(out["vector"])
        assert result["retries"] > 0
        assert sum(r["preemptions"] for r in result["requests"]) > 0


# ----------------------------------------------------------------------
# Core selection plumbing, cached aggregates, NaN safety


class TestCoreSelection:
    def test_resolve_core_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_CORE", raising=False)
        assert resolve_core(None) == "vector"
        monkeypatch.setenv("REPRO_ENGINE_CORE", "scalar")
        assert resolve_core(None) == "scalar"
        assert resolve_core("vector") == "vector"  # explicit beats env

    def test_invalid_core_rejected(self, monkeypatch):
        expected = re.escape("('vector', 'scalar')")
        for name in ("simd", "legacy"):
            with pytest.raises(ValueError, match=expected):
                ServingEngine(_dep(), core=name)
            with pytest.raises(ValueError, match=expected):
                ClusterSimulator(_dep(), 2, core=name)
            monkeypatch.setenv("REPRO_ENGINE_CORE", name)
            with pytest.raises(ValueError, match=expected):
                ServingEngine(_dep())
            with pytest.raises(ValueError, match=expected):
                ClusterSimulator(_dep(), 2)
            monkeypatch.delenv("REPRO_ENGINE_CORE")

    def test_scheduler_arrival_index_tracks_waiting(self):
        """The sorted arrival multiset stays equal to the waiting set's
        arrival times through admission and preemption churn."""
        engine = ServingEngine(
            _dep("LLaMA-2-7B"), optimistic=True, max_concurrency=24
        )
        trace = fixed_batch_trace(24, 1800, 2200)  # overpacks the KV pool
        run = engine.start()
        for request in sorted(trace, key=lambda r: r.arrival_time):
            run.submit(request)
        scheduler = run.scheduler
        while run.has_work:
            run.step()
            assert scheduler._arrivals == sorted(
                r.arrival_time for r in scheduler.waiting
            )
        assert scheduler.stats.preemptions > 0


class TestResultCaching:
    def test_aggregates_cached(self):
        result = ServingEngine(_dep()).run(fixed_batch_trace(4, 64, 32))
        first = result.total_tokens
        result.requests[0].generated_tokens += 1000  # cache must not see this
        assert result.total_tokens == first
        assert result.mean_ttft_s == result.mean_ttft_s
        timelines = result.timelines()
        timelines.clear()  # caller-owned copy
        assert len(result.timelines()) == len(result.requests)


class TestNaNSafety:
    def test_empty_trace_rejected_both_cores(self):
        for core in ("scalar", "vector"):
            with pytest.raises(ValueError, match="empty"):
                ServingEngine(_dep(), core=core).run([])

    def test_single_token_outputs_no_decode_span(self):
        scalar, vector = _run_pair(_dep(), fixed_batch_trace(4, 64, 1))
        _assert_results_identical(scalar, vector)
        assert vector.decode_steps == 0
        assert vector.mean_itl_s == 0.0
        assert not math.isnan(vector.mean_ttft_s)

    def test_summary_conventions_match(self):
        trace = open_loop_trace(12, 4.0, 256, 64, seed=29)
        scalar, vector = _run_pair(_dep(), trace, max_concurrency=8)
        a = summarize_requests(scalar.requests, scalar.total_time_s, 4.0)
        b = summarize_requests(vector.requests, vector.total_time_s, 4.0)
        assert repr(a) == repr(b)  # dataclass repr covers NaN fields exactly
