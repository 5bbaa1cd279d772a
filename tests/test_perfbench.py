"""The benchmark regression gates of ``repro.bench.perfbench.check_regression``
on synthetic reports checked against the committed baseline."""

from pathlib import Path

import pytest

from repro.bench.perfbench import BenchReport, check_regression, load_baseline

BASELINE = load_baseline(
    Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"
)


def _report(**overrides) -> BenchReport:
    """A report that clears every committed gate, with ``overrides``
    replacing single entries (``name={"field": value}``)."""
    benchmarks = {
        "engine_iteration_rate": {
            "after_iters_per_s": BASELINE["engine_iteration_rate"]["after_iters_per_s"]
        },
        "engine_vectorized": {"speedup": 2.3},
        "cluster_vectorized": {"speedup": 1.8},
        "optimize_screening": {"configs_per_s": 15000.0},
        "profiler_overhead": {"overhead_factor": 1.5},
        "telemetry_overhead": {"overhead_factor": 1.7},
        "cluster_scale": {"requests_per_s": 2000.0, "kb_per_request": 1.8},
    }
    for name, fields in overrides.items():
        benchmarks[name] = {**benchmarks[name], **fields}
    return BenchReport(
        date="2026-01-01", reduced=True, deployment="LLaMA-3-8B/A100/vLLM",
        python="3", machine="x", benchmarks=benchmarks,
    )


def test_both_overhead_ceilings_are_committed():
    assert BASELINE["profiler_overhead"]["max_overhead_factor"] <= 3.0
    assert BASELINE["telemetry_overhead"]["max_overhead_factor"] == 5.0


def test_passing_report_has_no_failures():
    assert check_regression(_report(), BASELINE) == []


@pytest.mark.parametrize(
    ("name", "message"),
    [
        ("profiler_overhead", "profiler overhead regressed"),
        ("telemetry_overhead", "telemetry overhead regressed"),
    ],
)
def test_overhead_above_ceiling_trips_its_gate(name, message):
    ceiling = BASELINE[name]["max_overhead_factor"]
    at_ceiling = _report(**{name: {"overhead_factor": ceiling}})
    assert check_regression(at_ceiling, BASELINE) == []
    failures = check_regression(
        _report(**{name: {"overhead_factor": ceiling * 1.01}}), BASELINE
    )
    assert len(failures) == 1
    assert failures[0].startswith(message)
    assert f"ceiling {ceiling:g}x" in failures[0]


@pytest.mark.parametrize("name", ["engine_vectorized", "cluster_vectorized"])
def test_speedup_below_floor_trips_its_gate(name):
    floor = BASELINE[name]["min_speedup"]
    at_floor = _report(**{name: {"speedup": floor}})
    assert check_regression(at_floor, BASELINE) == []
    failures = check_regression(
        _report(**{name: {"speedup": floor * 0.99}}), BASELINE
    )
    assert len(failures) == 1
    assert failures[0].startswith(f"{name} speedup regressed")
    assert failures[0].endswith(
        f"required {floor:g}x (scalar vs vector core)"
    )


def test_ceiling_is_skipped_when_baseline_omits_it():
    baseline = {k: v for k, v in BASELINE.items() if k != "profiler_overhead"}
    report = _report(profiler_overhead={"overhead_factor": 100.0})
    assert check_regression(report, baseline) == []


def test_iteration_rate_gate_still_trips():
    floor = BASELINE["engine_iteration_rate"]["after_iters_per_s"] / 2.0
    failures = check_regression(
        _report(engine_iteration_rate={"after_iters_per_s": floor * 0.9}),
        BASELINE,
    )
    assert len(failures) == 1
    assert failures[0].startswith("engine iteration rate regressed")


def test_cluster_scale_gates_are_committed():
    gate = BASELINE["cluster_scale"]
    assert gate["min_requests_per_s"] > 0
    assert gate["max_kb_per_request"] > 0


@pytest.mark.parametrize(
    ("field", "gate", "factor", "message"),
    [
        ("requests_per_s", "min_requests_per_s", 0.99, "cluster scale rate regressed"),
        ("kb_per_request", "max_kb_per_request", 1.01, "cluster scale memory regressed"),
    ],
)
def test_cluster_scale_gate_trips(field, gate, factor, message):
    bound = BASELINE["cluster_scale"][gate]
    at_bound = _report(cluster_scale={field: bound})
    assert check_regression(at_bound, BASELINE) == []
    failures = check_regression(
        _report(cluster_scale={field: bound * factor}), BASELINE
    )
    assert len(failures) == 1
    assert failures[0].startswith(message)
    assert f"{bound:g}" in failures[0]
