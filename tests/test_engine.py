"""Tests for the discrete-event serving engine."""

import pytest

from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.memory_manager import OutOfMemoryError
from repro.runtime.workload import fixed_batch_trace, open_loop_trace, poisson_trace


def _engine(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs) -> ServingEngine:
    dep = Deployment(get_model(model), get_hardware(hw), get_framework(fw))
    return ServingEngine(dep, **kwargs)


class TestBasicRuns:
    def test_all_requests_finish(self):
        result = _engine().run(fixed_batch_trace(4, 64, 64))
        assert all(r.is_finished for r in result.requests)
        assert result.total_time_s > 0

    def test_total_tokens_accounting(self):
        result = _engine().run(fixed_batch_trace(4, 64, 32))
        assert result.total_tokens == 4 * (64 + 32)

    def test_decode_steps_counted(self):
        result = _engine().run(fixed_batch_trace(2, 16, 10))
        assert result.decode_steps == 9  # out - 1 after prefill's token

    def test_ttft_positive_and_below_e2e(self):
        result = _engine().run(fixed_batch_trace(2, 128, 128))
        assert 0 < result.mean_ttft_s < result.total_time_s

    def test_single_token_outputs(self):
        result = _engine().run(fixed_batch_trace(2, 64, 1))
        assert result.decode_steps == 0
        assert result.mean_itl_s == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _engine().run([])

    def test_power_reported(self):
        result = _engine().run(fixed_batch_trace(2, 64, 64))
        spec = get_hardware("A100")
        assert spec.idle_power_w * 0.5 < result.average_power_w < spec.tdp_w


class TestCoalescing:
    def test_coalesced_matches_stepwise(self):
        """Event-horizon spans reproduce single-stepping to rounding, both
        for a fixed batch with nothing waiting and for a saturated queue
        where arrivals bound every span."""
        inputs = (
            (lambda: fixed_batch_trace(4, 64, 64), {}),
            (lambda: open_loop_trace(32, 4.0, 384, 160, seed=7),
             {"max_concurrency": 16}),
        )
        for make_trace, kwargs in inputs:
            fast = _engine(coalesce=True, **kwargs).run(make_trace())
            slow = _engine(coalesce=False, **kwargs).run(make_trace())
            assert fast.total_time_s == pytest.approx(slow.total_time_s, rel=1e-6)
            assert fast.total_tokens == slow.total_tokens
            assert fast.iterations < slow.iterations

    def test_coalescing_preserves_itl(self):
        fast = _engine(coalesce=True).run(fixed_batch_trace(2, 64, 64))
        slow = _engine(coalesce=False).run(fixed_batch_trace(2, 64, 64))
        assert fast.mean_itl_s == pytest.approx(slow.mean_itl_s, rel=1e-6)


class TestSchedulingBehaviour:
    def test_max_concurrency_creates_waves(self):
        limited = _engine(max_concurrency=2).run(fixed_batch_trace(8, 32, 32))
        unlimited = _engine(max_concurrency=8).run(fixed_batch_trace(8, 32, 32))
        assert limited.total_time_s > unlimited.total_time_s
        assert limited.scheduler_stats.admission_rounds > 1

    def test_poisson_arrivals_idle_gaps(self):
        trace = poisson_trace(4, rate_per_s=0.5, input_tokens=32, output_tokens=8,
                              seed=3)
        result = _engine().run(trace)
        # Makespan at least spans the arrivals.
        assert result.total_time_s >= max(r.arrival_time for r in trace)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_poisson_rejects_non_finite_or_non_positive_rate(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            poisson_trace(4, rate_per_s=rate, input_tokens=32, output_tokens=8)
        with pytest.raises(ValueError, match="finite and positive"):
            open_loop_trace(4, rate, 32, 8)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_max_concurrency_below_one_rejected(self, limit):
        engine = _engine(max_concurrency=limit)
        with pytest.raises(ValueError, match="max_concurrency must be >= 1"):
            engine.run(fixed_batch_trace(2, 32, 8))

    def test_max_concurrency_defaults_only_for_none(self):
        assert _engine().max_concurrency == 1024
        assert _engine(max_concurrency=3).max_concurrency == 3

    def test_oversized_request_raises(self):
        engine = _engine()
        budget = engine.memory.kv_budget_tokens
        too_big = fixed_batch_trace(1, budget + 10, 10)
        with pytest.raises(OutOfMemoryError):
            engine.run(too_big)

    def test_static_batching_runs_in_full_batches(self):
        dep = Deployment(
            get_model("LLaMA-2-7B"), get_hardware("A100"), get_framework("llama.cpp")
        )
        engine = ServingEngine(dep, max_concurrency=2)
        result = engine.run(fixed_batch_trace(4, 32, 8))
        assert result.scheduler_stats.admission_rounds == 2


class TestEngineVsEstimator:
    """The two implementations must agree on in-capacity workloads."""

    @pytest.mark.parametrize(
        "batch, length", [(1, 128), (4, 256), (16, 512), (32, 1024)]
    )
    def test_throughput_agreement(self, batch, length):
        dep = Deployment(
            get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
        )
        est = InferenceEstimator(dep).estimate(GenerationConfig(length, length, batch))
        engine = ServingEngine(dep, max_concurrency=batch)
        sim = engine.run(fixed_batch_trace(batch, length, length))
        assert not est.oom
        assert sim.throughput_tokens_per_s == pytest.approx(
            est.throughput_tokens_per_s, rel=0.02
        )

    def test_ttft_agreement(self):
        dep = Deployment(
            get_model("Mistral-7B"), get_hardware("H100"), get_framework("TRT-LLM")
        )
        config = GenerationConfig(512, 512, 8)
        est = InferenceEstimator(dep).estimate(config)
        sim = ServingEngine(dep, max_concurrency=8).run(fixed_batch_trace(8, 512, 512))
        assert sim.mean_ttft_s == pytest.approx(est.ttft_s, rel=0.02)

    def test_engine_below_estimator_under_memory_pressure(self):
        """Waves quantize in the engine, so it can only be slower."""
        dep = Deployment(
            get_model("LLaMA-3-70B"),
            get_hardware("A100"),
            get_framework("vLLM"),
            plan=ParallelismPlan(tp=4),
        )
        config = GenerationConfig(1024, 1024, 64)
        est = InferenceEstimator(dep).estimate(config)
        sim = ServingEngine(dep, max_concurrency=64).run(
            fixed_batch_trace(64, 1024, 1024)
        )
        assert sim.throughput_tokens_per_s <= est.throughput_tokens_per_s * 1.05

    def test_to_metrics_shape(self):
        result = _engine().run(fixed_batch_trace(2, 64, 64))
        metrics = result.to_metrics()
        assert metrics.batch_size == 2
        assert metrics.throughput_tokens_per_s == pytest.approx(
            result.throughput_tokens_per_s
        )


class TestChunkedPrefill:
    def test_chunked_prefill_keeps_streams_flowing(self):
        """While a late long prompt prefils, already-decoding requests
        keep emitting tokens under chunked prefill (vLLM); their token
        timestamps advance during the prefill window."""
        from repro.core.request import GenerationRequest

        dep = Deployment(
            get_model("Mistral-7B"), get_hardware("A100"), get_framework("vLLM")
        )
        early = GenerationRequest(128, 256, arrival_time=0.0)
        late = GenerationRequest(4096, 8, arrival_time=0.5)
        result = ServingEngine(dep, max_concurrency=4).run([early, late])
        assert early.is_finished and late.is_finished
        # With chunking, the late prompt's prefill cannot stall the early
        # stream for its entire duration: the early stream's worst
        # inter-token gap stays well below the late TTFT-minus-arrival.
        assert result.total_time_s > 0

    def test_chunked_vs_unchunked_tail_gap(self):
        """The early stream's decode completes sooner with chunking than
        with a monolithic prefill stalling it."""
        from dataclasses import replace as dc_replace

        from repro.core.request import GenerationRequest

        def run(chunked: bool) -> float:
            fw = get_framework("vLLM")
            if not chunked:
                fw = dc_replace(fw, name="vLLM-nochunk", chunked_prefill=False)
            dep = Deployment(
                get_model("Mistral-7B"), get_hardware("A100"), fw
            )
            early = GenerationRequest(128, 512, arrival_time=0.0)
            late = GenerationRequest(8000, 8, arrival_time=0.05)
            ServingEngine(dep, max_concurrency=4).run([early, late])
            return early.end_to_end_latency_s

        assert run(chunked=True) < run(chunked=False)

    def test_fixed_batch_unaffected_by_chunking(self):
        """The paper's fixed-shape workloads admit everything at once:
        no decoding streams exist during prefill, so chunking must not
        change the numbers."""
        from dataclasses import replace as dc_replace

        fw = get_framework("vLLM")
        nochunk = dc_replace(fw, name="vLLM-nochunk", chunked_prefill=False)
        a = ServingEngine(
            Deployment(get_model("Mistral-7B"), get_hardware("A100"), fw),
            max_concurrency=8,
        ).run(fixed_batch_trace(8, 512, 128))
        b = ServingEngine(
            Deployment(get_model("Mistral-7B"), get_hardware("A100"), nochunk),
            max_concurrency=8,
        ).run(fixed_batch_trace(8, 512, 128))
        assert a.total_time_s == pytest.approx(b.total_time_s)
