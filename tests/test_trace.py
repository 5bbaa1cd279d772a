"""Tests for workload trace generators."""

import pytest

from repro.runtime.workload import (
    TraceSummary,
    blended_trace,
    fixed_batch_trace,
    open_loop_trace,
    poisson_trace,
)


class TestFixedBatch:
    def test_shape(self):
        trace = fixed_batch_trace(8, 128, 64)
        assert len(trace) == 8
        assert all(r.input_tokens == 128 and r.output_tokens == 64 for r in trace)
        assert all(r.arrival_time == 0.0 for r in trace)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            fixed_batch_trace(0, 128, 64)


class TestPoisson:
    def test_deterministic_with_seed(self):
        a = poisson_trace(10, 2.0, 64, 64, seed=7)
        b = poisson_trace(10, 2.0, 64, 64, seed=7)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]

    def test_different_seeds_differ(self):
        a = poisson_trace(10, 2.0, 64, 64, seed=1)
        b = poisson_trace(10, 2.0, 64, 64, seed=2)
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_first_arrival_at_zero(self):
        trace = poisson_trace(5, 1.0, 64, 64, seed=0)
        assert trace[0].arrival_time == 0.0

    def test_arrivals_sorted(self):
        times = [r.arrival_time for r in poisson_trace(20, 1.0, 64, 64, seed=0)]
        assert times == sorted(times)

    def test_mean_gap_near_rate(self):
        trace = poisson_trace(2000, 4.0, 64, 64, seed=0)
        span = trace[-1].arrival_time
        assert span / 1999 == pytest.approx(0.25, rel=0.15)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            poisson_trace(5, 0.0, 64, 64)


class TestBlended:
    def test_deterministic_with_seed(self):
        a = blended_trace(10, 256, 128, seed=5)
        b = blended_trace(10, 256, 128, seed=5)
        assert [(r.input_tokens, r.output_tokens) for r in a] == [
            (r.input_tokens, r.output_tokens) for r in b
        ]

    def test_lengths_near_requested_means(self):
        trace = blended_trace(2000, 512, 256, seed=0)
        mean_in = sum(r.input_tokens for r in trace) / len(trace)
        mean_out = sum(r.output_tokens for r in trace) / len(trace)
        assert mean_in == pytest.approx(512, rel=0.1)
        assert mean_out == pytest.approx(256, rel=0.1)

    def test_bounds_respected(self):
        trace = blended_trace(500, 64, 64, seed=1, min_tokens=16, max_tokens=256)
        for r in trace:
            assert 16 <= r.input_tokens <= 256
            assert 16 <= r.output_tokens <= 256

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            blended_trace(10, 64, 64, min_tokens=100, max_tokens=50)

    @pytest.mark.parametrize("bad", [0, -5, float("nan"), float("inf")])
    def test_rejects_non_positive_or_nan_means(self, bad):
        with pytest.raises(ValueError, match="mean_input_tokens"):
            blended_trace(10, bad, 64)
        with pytest.raises(ValueError, match="mean_output_tokens"):
            blended_trace(10, 64, bad)
        with pytest.raises(ValueError, match="mean_input_tokens"):
            open_loop_trace(10, 2.0, bad, 64)
        with pytest.raises(ValueError, match="mean_output_tokens"):
            open_loop_trace(10, 2.0, 64, bad)


class TestTraceSummary:
    def test_aggregates(self):
        trace = fixed_batch_trace(4, 100, 50)
        summary = TraceSummary.of(trace)
        assert summary.num_requests == 4
        assert summary.total_input_tokens == 400
        assert summary.total_output_tokens == 200
        assert summary.first_arrival_s == summary.last_arrival_s == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceSummary.of([])


class TestRemovedTraceModule:
    def test_old_module_name_is_gone(self):
        import importlib
        import sys

        sys.modules.pop("repro.runtime.trace", None)
        with pytest.raises(ImportError):
            importlib.import_module("repro.runtime.trace")
        # The failed import must not leave a half-initialized module behind.
        assert "repro.runtime.trace" not in sys.modules
