"""Before/after performance benchmarks for the step-cost kernel.

Times the simulator's hot paths twice — once through the un-memoized
``phases.py`` roofline (:class:`~repro.perf.kernel.DirectStepCost`) and
once through the shared :class:`~repro.perf.kernel.StepCostKernel` — and
writes a ``BENCH_<date>.json`` record so the repo carries a measured perf
trajectory across PRs:

* **sweep_grid** — a batch x input x output metric grid: scalar estimator
  loop vs one vectorized :meth:`evaluate_grid` pass;
* **estimator_points** — repeated single-workload estimates;
* **engine_iteration_rate** — a full :meth:`ServingEngine.run` over an
  open-loop trace (iterations/s is the CI regression metric);
* **cluster_run** — a multi-replica :class:`ClusterSimulator` run with one
  kernel shared across the fleet;
* **profiler_overhead** — the same engine run unprofiled vs with the
  cost-attribution profiler on (``overhead_factor`` reports the cost of
  ``profile=True``; gated by the baseline's ``max_overhead_factor``
  ceiling);
* **telemetry_overhead** — the same engine run with ``NULL_TELEMETRY``
  vs a fresh :class:`~repro.obs.telemetry.TelemetryHub` attached
  (``overhead_factor`` reports the cost of the streaming telemetry bus;
  gated by the baseline's ``max_overhead_factor`` ceiling);
* **scenario_trace** — building a :mod:`repro.scenarios` request trace
  (arrivals, multi-turn sessions, length sampling), cold vs warm, so
  trace-generation cost is tracked alongside the simulator hot paths;
* **engine_vectorized** — the same engine run through the ``scalar``
  reference core (per-token object loops) vs the ``vector`` core
  (struct-of-arrays commits), with a bit-identity check first;
* **cluster_vectorized** — a multi-replica run, ``scalar`` vs ``vector``
  core (heap-ordered replica selection + array commits), same check;
* **optimize_screening** — the deployment optimizer's analytic screening
  pass (:func:`repro.analysis.optimize.screen`, one vectorized kernel
  grid per deployment) vs a scalar per-config estimator loop timed on a
  sample and extrapolated; ``configs_per_s`` is gated by the baseline's
  ``min_configs_per_s`` floor;
* **cluster_scale** — a fleet-scale run on its own (no "before"): 64
  replicas behind least-outstanding routing under Poisson arrivals at
  200 req/s; ``requests_per_s`` (simulated requests per wall second) and
  ``kb_per_request`` (peak traced Python heap per request) are gated by
  the baseline's ``min_requests_per_s`` floor and ``max_kb_per_request``
  ceiling.

Every pair is checked for agreement before timings are reported — a
benchmark that got faster by computing something else is a bug, not a win.
CI runs the reduced grid and fails when the kernel-path engine iteration
rate regresses more than ``--max-regression`` against
``benchmarks/baseline.json``, when the vectorized-core speedups fall
below the baseline's ``min_speedup`` floors, when an instrumentation
overhead exceeds its ``max_overhead_factor`` ceiling, or when the
fleet-scale run falls below its throughput floor or above its memory
ceiling (see docs/performance.md).
"""

from __future__ import annotations

import datetime
import json
import platform
import time
import tracemalloc
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.bench.runner import default_plan
from repro.cluster.router import LeastOutstandingTokensRouter
from repro.cluster.simulator import ClusterSimulator
from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.kernel import DirectStepCost, StepCostKernel
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import open_loop_trace

__all__ = [
    "BenchReport",
    "check_regression",
    "load_baseline",
    "run_benchmarks",
    "write_report",
]

# The reference deployment: the paper's most-covered configuration, sized
# so nothing OOMs and every phase (prefill, decode, waves) is exercised.
_MODEL = "LLaMA-3-8B"
_HARDWARE = "A100"
_FRAMEWORK = "vLLM"

_AGREEMENT_RTOL = 1e-9  # sanity bar here; tests enforce 1e-12


@dataclass
class BenchReport:
    """One harness invocation's results plus environment context."""

    date: str
    reduced: bool
    deployment: str
    python: str
    machine: str
    benchmarks: dict[str, dict[str, float]]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def _reference_deployment() -> Deployment:
    model = get_model(_MODEL)
    hardware = get_hardware(_HARDWARE)
    framework = get_framework(_FRAMEWORK)
    return Deployment(
        model, hardware, framework, plan=default_plan(model, hardware)
    )


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (steady-state cost:
    the first call may pay cache warm-up, later calls measure the memoized
    fast path — exactly the regime long sweeps and cluster runs live in)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= _AGREEMENT_RTOL * max(abs(a), abs(b))


def _bench_sweep_grid(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    if reduced:
        batches = (1, 8, 32, 128)
        inputs = (128, 1024)
        outputs = (128, 512)
    else:
        batches = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        inputs = (128, 256, 512, 1024, 2048)
        outputs = (1, 128, 256, 512, 1024)
    points = len(batches) * len(inputs) * len(outputs)
    direct = InferenceEstimator(dep, kernel=DirectStepCost(dep))

    def scalar_loop() -> list[float]:
        return [
            direct.estimate(GenerationConfig(i, o, b)).throughput_tokens_per_s
            for b in batches
            for i in inputs
            for o in outputs
        ]

    def grid_pass():
        return kernel.evaluate_grid(batches, inputs, outputs)

    scalar = scalar_loop()
    grid = grid_pass()
    flat = grid.throughput_tokens_per_s.reshape(-1)
    for idx, value in enumerate(scalar):
        if not _close(value, float(flat[idx])):
            raise AssertionError(
                f"sweep grid disagrees with scalar estimator at point {idx}"
            )

    before = _best_of(scalar_loop, repeats)
    after = _best_of(grid_pass, repeats)
    return {
        "points": float(points),
        "before_s": before,
        "after_s": after,
        "before_points_per_s": points / before,
        "after_points_per_s": points / after,
        "speedup": before / after,
    }


def _bench_estimator_points(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    lengths = (128, 256, 512, 1024) if reduced else (128, 256, 512, 1024, 2048)
    batches = (1, 16, 64) if reduced else (1, 4, 16, 32, 64)
    workloads = [
        GenerationConfig(n, n, b) for n in lengths for b in batches
    ]
    direct = InferenceEstimator(dep, kernel=DirectStepCost(dep))
    fast = InferenceEstimator(dep, kernel=kernel)

    for config in workloads:
        a = direct.estimate(config).end_to_end_latency_s
        b = fast.estimate(config).end_to_end_latency_s
        if not _close(a, b):
            raise AssertionError(f"estimator disagreement at {config}")

    before = _best_of(
        lambda: [direct.estimate(c) for c in workloads], repeats
    )
    after = _best_of(lambda: [fast.estimate(c) for c in workloads], repeats)
    return {
        "points": float(len(workloads)),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
    }


def _bench_engine(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    num_requests = 24 if reduced else 64
    trace_args = (num_requests, 4.0, 384, 160)

    def run_with(step_kernel) -> object:
        engine = ServingEngine(dep, max_concurrency=16, kernel=step_kernel)
        return engine.run(open_loop_trace(*trace_args, seed=7))

    direct_result = run_with(DirectStepCost(dep))
    kernel_result = run_with(kernel)
    if not _close(direct_result.total_time_s, kernel_result.total_time_s):
        raise AssertionError("engine makespan diverged between step-cost paths")
    iterations = kernel_result.iterations

    before = _best_of(lambda: run_with(DirectStepCost(dep)), repeats)
    after = _best_of(lambda: run_with(kernel), repeats)
    return {
        "iterations": float(iterations),
        "before_s": before,
        "after_s": after,
        "before_iters_per_s": iterations / before,
        "after_iters_per_s": iterations / after,
        "speedup": before / after,
    }


def _bench_cluster(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    num_replicas = 2 if reduced else 4
    num_requests = 32 if reduced else 96

    def run_with(step_kernel) -> object:
        simulator = ClusterSimulator(
            dep, num_replicas, max_concurrency=16, kernel=step_kernel
        )
        trace = open_loop_trace(num_requests, 8.0, 384, 160, seed=11)
        return simulator.run(trace)

    direct_result = run_with(DirectStepCost(dep))
    kernel_result = run_with(kernel)
    if not _close(direct_result.makespan_s, kernel_result.makespan_s):
        raise AssertionError("cluster makespan diverged between step-cost paths")

    before = _best_of(lambda: run_with(DirectStepCost(dep)), repeats)
    after = _best_of(lambda: run_with(kernel), repeats)
    return {
        "replicas": float(num_replicas),
        "requests": float(num_requests),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
    }


def _bench_profiler_overhead(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    """Cost of the cost profiler itself: unprofiled vs profiled engine run.

    ``before_s`` is the plain kernel-path run (profiling off — the default
    every other benchmark and production sweep uses), ``after_s`` the same
    run with ``profile=True``.  The simulated clock must be bit-identical
    between the two; ``overhead_factor`` reports the wall-clock cost of
    turning attribution on, and the CI regression gate keys on the
    baseline's ``max_overhead_factor``.
    """
    num_requests = 24 if reduced else 64
    trace_args = (num_requests, 4.0, 384, 160)

    def run_with(profile: bool) -> object:
        engine = ServingEngine(
            dep, max_concurrency=16, kernel=kernel, profile=profile
        )
        return engine.run(open_loop_trace(*trace_args, seed=7))

    plain_result = run_with(False)
    profiled_result = run_with(True)
    if plain_result.total_time_s != profiled_result.total_time_s:
        raise AssertionError("profiling changed the simulated clock")
    if profiled_result.profile is None:
        raise AssertionError("profiled run produced no ProfileReport")

    before = _best_of(lambda: run_with(False), repeats)
    after = _best_of(lambda: run_with(True), repeats)
    return {
        "iterations": float(plain_result.iterations),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "overhead_factor": after / before,
    }


def _bench_telemetry_overhead(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    """Cost of the streaming telemetry bus: hub off vs hub attached.

    ``before_s`` is the plain kernel-path run (``NULL_TELEMETRY``, the
    default), ``after_s`` the same run with a fresh ``TelemetryHub``
    sampling gauges, flushing completions and evaluating the SLO budget
    on every tick.  The simulated clock must be bit-identical between
    the two (the telemetry-off identity contract); ``overhead_factor``
    reports the wall-clock cost of turning the bus on.  The CI
    regression gate keys on the baseline's ``max_overhead_factor``.
    """
    from repro.obs.telemetry import TelemetryHub

    num_requests = 24 if reduced else 64
    trace_args = (num_requests, 4.0, 384, 160)

    def run_with(telemetry: bool) -> object:
        kwargs = {"telemetry": TelemetryHub()} if telemetry else {}
        engine = ServingEngine(
            dep, max_concurrency=16, kernel=kernel, **kwargs
        )
        return engine.run(open_loop_trace(*trace_args, seed=7))

    plain_result = run_with(False)
    telemetry_result = run_with(True)
    if plain_result.total_time_s != telemetry_result.total_time_s:
        raise AssertionError("telemetry changed the simulated clock")
    if telemetry_result.telemetry is None:
        raise AssertionError("telemetry run produced no snapshot")

    before = _best_of(lambda: run_with(False), repeats)
    after = _best_of(lambda: run_with(True), repeats)
    return {
        "iterations": float(plain_result.iterations),
        "series": float(len(telemetry_result.telemetry.series)),
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "overhead_factor": after / before,
    }


def _time_cores(
    run_with: Callable[[str], object],
    outcome: Callable[[object], object],
    repeats: int,
) -> tuple[object, dict[str, float]]:
    """``core="scalar"`` (before) vs ``core="vector"`` (after).

    Both cores share the event-horizon span rule, so their runs must be
    bit-identical on ``outcome`` before either is timed.  Returns the
    vector run's result and the timing fields.
    """
    scalar_result = run_with("scalar")
    vector_result = run_with("vector")
    if outcome(scalar_result) != outcome(vector_result):
        raise AssertionError("vector core is not bit-identical to scalar core")
    before = _best_of(lambda: run_with("scalar"), repeats)
    after = _best_of(lambda: run_with("vector"), repeats)
    return vector_result, {
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
    }


def _bench_engine_vectorized(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    """Vectorized event core (struct-of-arrays commits) vs its scalar
    reference (per-token loops over request objects).

    The workload is a saturation regime — arrivals outpace service so a
    queue persists through most of the run, the regime fleet-scale
    sweeps live in.
    """
    num_requests = 32 if reduced else 64
    trace_args = (num_requests, 16.0, 128, 768)

    def run_with(core: str) -> object:
        engine = ServingEngine(
            dep, max_concurrency=8, kernel=kernel, core=core
        )
        return engine.run(open_loop_trace(*trace_args, seed=7))

    vector_result, timings = _time_cores(
        run_with, lambda r: (r.total_time_s, r.iterations), repeats
    )
    return {"vector_iterations": float(vector_result.iterations), **timings}


def _bench_cluster_vectorized(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    """Batched cluster stepping (``core="vector"``) vs the scalar loop.

    Same saturation regime as ``engine_vectorized``, spread across a
    fleet so replica selection and horizon computation are exercised too.
    """
    num_replicas = 2 if reduced else 4
    num_requests = 48 if reduced else 96
    rate = 24.0 if reduced else 48.0

    def run_with(core: str) -> object:
        simulator = ClusterSimulator(
            dep, num_replicas, max_concurrency=8, kernel=kernel, core=core
        )
        trace = open_loop_trace(num_requests, rate, 128, 768, seed=11)
        return simulator.run(trace)

    _, timings = _time_cores(run_with, lambda r: r.makespan_s, repeats)
    return {
        "replicas": float(num_replicas),
        "requests": float(num_requests),
        **timings,
    }


def _bench_cluster_scale(
    dep: Deployment, kernel: StepCostKernel, reduced: bool, repeats: int
) -> dict[str, float]:
    """Fleet-scale simulator throughput and memory, on their own.

    64 replicas behind least-outstanding routing, Poisson arrivals at
    200 req/s (512-token prompts, 256-token outputs): the shape where the
    per-arrival and per-step fixed costs of the fleet loop dominate.
    ``requests_per_s`` is trace requests over the best ``run()`` wall
    time of ``repeats`` runs (trace construction excluded);
    ``kb_per_request`` is the peak Python heap traced by ``tracemalloc``
    during one further run, over the request count.  Every run must
    finish every request.
    """
    num_replicas = 64
    num_requests = 2_000 if reduced else 10_000

    def run_once() -> float:
        trace = open_loop_trace(num_requests, 200.0, 512, 256, seed=13)
        simulator = ClusterSimulator(
            dep,
            num_replicas,
            router=LeastOutstandingTokensRouter(),
            kernel=kernel,
        )
        start = time.perf_counter()
        result = simulator.run(trace)
        elapsed = time.perf_counter() - start
        if result.failed_requests or any(
            r.finish_time is None for r in result.requests
        ):
            raise AssertionError("cluster_scale run left requests unfinished")
        return elapsed

    best = min(run_once() for _ in range(repeats))
    tracemalloc.start()
    try:
        run_once()
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "replicas": float(num_replicas),
        "requests": float(num_requests),
        "after_s": best,
        "requests_per_s": num_requests / best,
        "kb_per_request": peak_bytes / 1024.0 / num_requests,
    }


def _bench_scenario_trace(reduced: bool, repeats: int) -> dict[str, float]:
    """Cost of building a scenario trace (arrivals, turns, lengths, tenants).

    Trace generation sits upstream of every scenario run and experiment
    replication, so its cost is tracked like the simulator hot paths.
    There is no before/after pair here — ``before_s`` is the cold first
    build, ``after_s`` the steady-state best-of, so the record still fits
    the harness schema and ``speedup`` reports warm-up amortization.  Two
    same-seed builds are checked identical first (the determinism
    contract the replay CI gate depends on).
    """
    from repro.scenarios import get_scenario, trace_json_dicts

    scenario = get_scenario("chat-sharegpt").with_sessions(64 if reduced else 256)

    if trace_json_dicts(scenario.build(seed=5)) != trace_json_dicts(
        scenario.build(seed=5)
    ):
        raise AssertionError("same-seed scenario builds diverged")

    start = time.perf_counter()
    requests = scenario.build(seed=5)
    before = time.perf_counter() - start
    after = _best_of(lambda: scenario.build(seed=5), repeats)
    return {
        "sessions": float(scenario.num_sessions),
        "requests": float(len(requests)),
        "before_s": before,
        "after_s": after,
        "requests_per_s": len(requests) / after,
        "speedup": before / after,
    }


def _bench_optimize_screening(reduced: bool, repeats: int) -> dict[str, float]:
    """Optimizer screening throughput: configurations priced per second.

    ``after_s`` is a full :func:`repro.analysis.optimize.screen` pass —
    one vectorized ``evaluate_grid`` call per valid deployment covering
    the whole batch axis.  The honest "before" (the repo's pre-optimizer
    capability: one scalar ``InferenceEstimator.estimate`` per
    configuration) would take minutes at this scale, so it is timed on a
    deterministic sample and extrapolated linearly to the screened count
    (``extrapolated_before`` flags the entry).  Sampled lanes are checked
    against the screening grid first — same kernel, so they must agree to
    float-reassociation tolerance.

    The full (non-reduced) space deliberately crosses the 10^4-config
    bar from the ISSUE 9 acceptance criteria; the entry raises if the
    valid subset ever shrinks below it.  ``configs_per_s`` is the CI
    regression metric (``min_configs_per_s`` floor in baseline.json).
    """
    from repro.analysis.optimize import SearchSpace, build_deployment, screen

    if reduced:
        space = SearchSpace(
            models=("llama-2-7b", "llama-3-8b"),
            hardware=("A100", "H100", "MI300X"),
            frameworks=("vLLM", "TRT-LLM"),
            quant_schemes=("fp16", "fp8", "int8"),
            tensor_parallel=(1, 2, 4),
            batch_sizes=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        required = 0
    else:
        space = SearchSpace(
            models=(
                "llama-2-7b", "llama-3-8b", "mistral-7b", "qwen2-7b",
                "gemma-7b", "qwen1.5-7b", "llama-7b", "decilm-7b",
            ),
            hardware=("A100", "H100", "GH200", "MI250", "MI300X", "Gaudi2", "SN40L"),
            frameworks=("vLLM", "TRT-LLM", "DeepSpeed-MII"),
            quant_schemes=("fp16", "fp8", "int8"),
            tensor_parallel=(1, 2, 4),
            batch_sizes=(
                1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
            ),
        )
        required = 10_000

    configs, stats = screen(space)
    if stats.configs_screened < required:
        raise AssertionError(
            f"screening covered {stats.configs_screened} configs, "
            f"acceptance bar is {required}"
        )

    workload_tokens = (space.input_tokens, space.output_tokens)
    sample = [c for c in configs[:: max(1, len(configs) // 16)] if not c.oom]

    def scalar_sample() -> None:
        for c in sample:
            dep = build_deployment(c.model, c.hardware, c.framework, c.quant, c.tp)
            InferenceEstimator(dep, kernel=DirectStepCost(dep)).estimate(
                GenerationConfig(*workload_tokens, c.batch_size)
            )

    for c in sample:
        dep = build_deployment(c.model, c.hardware, c.framework, c.quant, c.tp)
        metrics = InferenceEstimator(dep, kernel=DirectStepCost(dep)).estimate(
            GenerationConfig(*workload_tokens, c.batch_size)
        )
        if not _close(metrics.end_to_end_latency_s, c.e2e_s):
            raise AssertionError(f"screening disagrees with estimator at {c.key}")

    before_sample = _best_of(scalar_sample, repeats)
    before = before_sample * (stats.configs_screened / len(sample))
    after = _best_of(lambda: screen(space), repeats)
    return {
        "configs": float(stats.configs_screened),
        "configs_per_s": stats.configs_screened / after,
        "before_s": before,
        "after_s": after,
        "speedup": before / after,
        "extrapolated_before": 1.0,
    }


def run_benchmarks(reduced: bool = False, repeats: int | None = None) -> BenchReport:
    """Run the ten before/after benchmarks plus the fleet-scale run and
    assemble a report."""
    if repeats is None:
        repeats = 2 if reduced else 3
    dep = _reference_deployment()
    kernel = StepCostKernel(dep)  # fresh, private: cold caches at start
    benchmarks = {
        "sweep_grid": _bench_sweep_grid(dep, kernel, reduced, repeats),
        "estimator_points": _bench_estimator_points(dep, kernel, reduced, repeats),
        "engine_iteration_rate": _bench_engine(dep, kernel, reduced, repeats),
        "cluster_run": _bench_cluster(dep, kernel, reduced, repeats),
        "profiler_overhead": _bench_profiler_overhead(
            dep, kernel, reduced, repeats
        ),
        "telemetry_overhead": _bench_telemetry_overhead(
            dep, kernel, reduced, repeats
        ),
        "scenario_trace": _bench_scenario_trace(reduced, repeats),
        "engine_vectorized": _bench_engine_vectorized(
            dep, kernel, reduced, repeats
        ),
        "cluster_vectorized": _bench_cluster_vectorized(
            dep, kernel, reduced, repeats
        ),
        "optimize_screening": _bench_optimize_screening(reduced, repeats),
        "cluster_scale": _bench_cluster_scale(dep, kernel, reduced, repeats),
    }
    return BenchReport(
        date=datetime.date.today().isoformat(),
        reduced=reduced,
        deployment=f"{_MODEL}/{_HARDWARE}/{_FRAMEWORK}",
        python=platform.python_version(),
        machine=platform.machine(),
        benchmarks=benchmarks,
    )


def write_report(report: BenchReport, output: str | Path | None = None) -> Path:
    """Write the report to ``output`` (default ``BENCH_<date>.json``)."""
    path = Path(output) if output is not None else Path(f"BENCH_{report.date}.json")
    path.write_text(report.to_json())
    return path


def load_baseline(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def check_regression(
    report: BenchReport, baseline: dict, max_regression: float = 2.0
) -> list[str]:
    """Regression messages (empty = pass).

    The gates:

    * the kernel-path engine iteration rate must stay above
      ``baseline / max_regression`` — the baseline is a deliberately
      conservative committed number so machine-to-machine variance does
      not trip CI, while an accidental return to un-memoized evaluation
      (a >5x cliff) always does;
    * the vectorized-core speedup ratios (``engine_vectorized`` and
      ``cluster_vectorized``, scalar core vs vector core on the same
      machine) must stay above the baseline's ``min_speedup`` floors.
      Ratios of two same-process timings are machine-independent, so
      these floors are tight;
    * the instrumentation overheads — ``profiler_overhead`` (profiled vs
      unprofiled run) and ``telemetry_overhead`` (hub attached vs
      ``NULL_TELEMETRY``) — must each stay below its baseline
      ``max_overhead_factor`` ceiling; same-process ratios again, so the
      ceilings hold across machines;
    * the fleet-scale run (``cluster_scale``) must stay above the
      baseline's absolute ``min_requests_per_s`` floor and below its
      ``max_kb_per_request`` ceiling, both set with runner headroom.
    """
    if max_regression <= 1.0:
        raise ValueError("max_regression must be > 1.0")
    failures: list[str] = []
    base_rate = baseline["engine_iteration_rate"]["after_iters_per_s"]
    rate = report.benchmarks["engine_iteration_rate"]["after_iters_per_s"]
    floor = base_rate / max_regression
    if rate < floor:
        failures.append(
            "engine iteration rate regressed: "
            f"{rate:.1f} iters/s < floor {floor:.1f} "
            f"(baseline {base_rate:.1f} / {max_regression:g})"
        )
    for name in ("engine_vectorized", "cluster_vectorized"):
        if name not in baseline:
            continue
        min_speedup = baseline[name]["min_speedup"]
        speedup = report.benchmarks[name]["speedup"]
        if speedup < min_speedup:
            failures.append(
                f"{name} speedup regressed: {speedup:.1f}x < "
                f"required {min_speedup:g}x (scalar vs vector core)"
            )
    for name, channel, versus in (
        ("profiler_overhead", "profiler", "profiled vs unprofiled"),
        ("telemetry_overhead", "telemetry", "hub attached vs NULL_TELEMETRY"),
    ):
        if name not in baseline:
            continue
        max_overhead = baseline[name]["max_overhead_factor"]
        overhead = report.benchmarks[name]["overhead_factor"]
        if overhead > max_overhead:
            failures.append(
                f"{channel} overhead regressed: "
                f"{overhead:.2f}x > ceiling {max_overhead:g}x ({versus})"
            )
    if "optimize_screening" in baseline:
        min_rate = baseline["optimize_screening"]["min_configs_per_s"]
        config_rate = report.benchmarks["optimize_screening"]["configs_per_s"]
        if config_rate < min_rate:
            failures.append(
                "optimize screening rate regressed: "
                f"{config_rate:.0f} configs/s < floor {min_rate:g}"
            )
    if "cluster_scale" in baseline:
        gate = baseline["cluster_scale"]
        row = report.benchmarks["cluster_scale"]
        if row["requests_per_s"] < gate["min_requests_per_s"]:
            failures.append(
                "cluster scale rate regressed: "
                f"{row['requests_per_s']:.0f} req/s < floor "
                f"{gate['min_requests_per_s']:g}"
            )
        if row["kb_per_request"] > gate["max_kb_per_request"]:
            failures.append(
                "cluster scale memory regressed: "
                f"{row['kb_per_request']:.2f} KB/request > ceiling "
                f"{gate['max_kb_per_request']:g}"
            )
    return failures


def render(report: BenchReport) -> str:
    lines = [
        f"step-cost kernel benchmarks ({report.deployment}, "
        f"{'reduced' if report.reduced else 'full'} grid)",
        f"{'benchmark':<24}{'before s':>12}{'after s':>12}{'speedup':>10}",
    ]
    for name, row in report.benchmarks.items():
        if "before_s" not in row:  # a standalone run: no before, no ratio
            lines.append(f"{name:<24}{'-':>12}{row['after_s']:>12.4f}{'-':>10}")
            continue
        lines.append(
            f"{name:<24}{row['before_s']:>12.4f}{row['after_s']:>12.4f}"
            f"{row['speedup']:>9.1f}x"
        )
    scale = report.benchmarks.get("cluster_scale")
    if scale is not None:
        lines.append(
            f"cluster_scale: {scale['requests']:.0f} requests on "
            f"{scale['replicas']:.0f} replicas, {scale['requests_per_s']:.0f} "
            f"simulated req/s, {scale['kb_per_request']:.2f} KB/request"
        )
    return "\n".join(lines)
