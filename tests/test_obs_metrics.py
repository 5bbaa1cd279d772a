"""Tests for the metrics registry (repro.obs.metrics)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Gauge,
    GaugeBank,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
)


class TestPercentile:
    def test_matches_numpy_on_random_samples(self):
        rng = np.random.default_rng(7)
        samples = list(rng.lognormal(0.0, 1.0, size=257))
        for q in (0, 1, 25, 50, 75, 90, 99, 99.9, 100):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12, abs=1e-15
            )

    def test_single_sample(self):
        assert percentile([4.2], 99) == 4.2

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("preemptions")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")


class TestGauge:
    def test_last_and_extremes(self):
        gauge = Gauge("queue_depth")
        for ts, v in [(0.0, 3), (1.0, 8), (2.0, 1)]:
            gauge.set(v, ts_s=ts)
        assert gauge.last == 1

    def test_time_weighted_mean(self):
        gauge = Gauge("batch")
        gauge.set(0, ts_s=0.0)
        gauge.set(10, ts_s=1.0)  # value 0 held for [0, 1)
        gauge.set(10, ts_s=3.0)  # value 10 held for [1, 3)
        # (0*1 + 10*2) / 3
        assert gauge.time_weighted_mean() == pytest.approx(20 / 3)

    def test_empty_gauge_is_nan(self):
        assert math.isnan(Gauge("x").time_weighted_mean())
        assert math.isnan(Gauge("x").last)

    def test_single_sample_at_t0_reports_value(self):
        # A gauge set exactly once at t=0 has zero span but a perfectly
        # well-defined value: it held that value the whole run.
        gauge = Gauge("x")
        gauge.set(7.0, ts_s=0.0)
        assert gauge.time_weighted_mean() == 7.0
        assert gauge.last == 7.0

    def test_zero_span_samples_average_plainly(self):
        # All samples at the same instant: no interval to weight by, so
        # the time-weighted mean degrades to the plain mean.
        gauge = Gauge("x")
        gauge.set(2.0, ts_s=1.0)
        gauge.set(4.0, ts_s=1.0)
        assert gauge.time_weighted_mean() == pytest.approx(3.0)

    def test_out_of_order_set_raises(self):
        gauge = Gauge("x")
        gauge.set(1.0, ts_s=2.0)
        with pytest.raises(ValueError, match="out-of-order"):
            gauge.set(2.0, ts_s=1.0)
        # Equal timestamps are fine (several gauges sampled per step).
        gauge.set(3.0, ts_s=2.0)
        assert gauge.last == 3.0

    def test_nan_value_propagates_not_raises(self):
        # NaN is a legitimate "unknown" sample (e.g. ITL with one output
        # token); it poisons the mean rather than raising.
        gauge = Gauge("x")
        gauge.set(float("nan"), ts_s=0.0)
        gauge.set(1.0, ts_s=1.0)
        assert math.isnan(gauge.time_weighted_mean())
        assert gauge.last == 1.0


    def test_nan_timestamp_rejected(self):
        gauge = Gauge("x")
        with pytest.raises(ValueError, match="NaN timestamp"):
            gauge.set(1.0, ts_s=float("nan"))  # first sample
        gauge.set(1.0, ts_s=1.0)
        with pytest.raises(ValueError, match="NaN timestamp"):
            gauge.set(2.0, ts_s=float("nan"))
        assert gauge.count == 1
        assert gauge.time_weighted_mean() == 1.0


class _ListGauge:
    """The list-based gauge the streaming :class:`Gauge` replaced: keeps
    every sample and folds them at read time.  Oracle for exact equality."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def set(self, value, ts_s):
        self.samples.append((ts_s, value))

    def stats(self):
        values = [v for _, v in self.samples]
        if not self.samples:
            mean = float("nan")
        elif len(self.samples) == 1:
            mean = self.samples[0][1]
        else:
            total = 0.0
            span = self.samples[-1][0] - self.samples[0][0]
            if span <= 0.0:
                mean = sum(values) / len(values)
            else:
                for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
                    total += v * (t1 - t0)
                mean = total / span
        return (
            values[-1] if values else float("nan"),
            min(values) if values else float("nan"),
            max(values) if values else float("nan"),
            mean,
            len(values),
        )


def _same(a, b) -> bool:
    """Bit-for-bit equality: same type and same shortest round-trip repr,
    so NaN matches NaN, 0.0 differs from -0.0 and 1 from 1.0."""
    return type(a) is type(b) and repr(a) == repr(b)


_gauge_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=False, width=64),
)


class TestStreamingGaugeEquivalence:
    """Streaming statistics equal the list-based fold, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @example(samples=[(0.0, 7)], start=0.0)  # single sample keeps its type
    @example(samples=[(0.0, 1), (1.0, 1.0), (1.0, 0.0), (1.0, -0.0)], start=0.0)
    @example(samples=[(0.0, 0.1), (0.0, 0.2), (0.0, float("nan"))], start=3.0)
    @example(samples=[(0.0, 0.1), (0.0, 0.7), (0.0, 0.2)], start=3.0)
    @given(
        samples=st.lists(
            st.tuples(
                # Gap to the previous sample; zeros give runs of equal
                # timestamps (several gauges sampled at one instant).
                st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
                _gauge_values,
            ),
            max_size=40,
        ),
        start=st.floats(-100.0, 100.0),
    )
    def test_matches_list_fold(self, samples, start):
        registry, oracle = MetricsRegistry(), _ListGauge()
        streaming = registry.gauge("g")
        ts = start
        for gap, value in samples:
            ts += gap
            streaming.set(value, ts_s=ts)
            oracle.set(value, ts_s=ts)
        stats = registry.snapshot().gauges["g"]
        got = (stats.last, stats.minimum, stats.maximum,
               stats.time_weighted_mean, stats.num_samples)
        want = oracle.stats()
        assert all(_same(g, w) for g, w in zip(got, want)), (got, want)
        assert _same(streaming.last, want[0])
        assert _same(streaming.time_weighted_mean(), want[3])


_SIGNALS = ("queue_depth", "outstanding_tokens", "kv_occupancy")
_INTS = (True, True, False)


class _BankOracle:
    """What the bank replaces: one :class:`_ListGauge` per (row, signal),
    each live row's gauges set in row order at every sample and
    registered on the row's first sample."""

    def __init__(self) -> None:
        self.prefixes: list[str] = []
        self.values: list[list] = []
        self.live: list[bool] = []
        self.gauges: dict[str, _ListGauge] = {}  # registration order

    def add_row(self, prefix: str) -> None:
        self.prefixes.append(prefix)
        self.values.append([0, 0, 0.0])
        self.live.append(True)

    def sample(self, ts: float) -> None:
        for prefix, row, live in zip(self.prefixes, self.values, self.live):
            if not live:
                continue
            for signal, value in zip(_SIGNALS, row):
                name = f"{prefix}.{signal}"
                self.gauges.setdefault(name, _ListGauge()).set(value, ts_s=ts)


def _bank_matches(registry: MetricsRegistry, bank: GaugeBank, oracle) -> None:
    bank.flush()
    got = registry.snapshot().gauges
    assert list(got) == list(oracle.gauges)  # registry order
    for name, gauge in oracle.gauges.items():
        stats = got[name]
        have = (stats.last, stats.minimum, stats.maximum,
                stats.time_weighted_mean, stats.num_samples)
        want = gauge.stats()
        assert all(_same(h, w) for h, w in zip(have, want)), (name, have, want)


def _drive(ops) -> tuple[MetricsRegistry, GaugeBank, _BankOracle]:
    registry = MetricsRegistry()
    bank = GaugeBank(registry, _SIGNALS, _INTS)
    oracle = _BankOracle()
    ts = 0.0
    for op in ops:
        kind = op[0]
        if kind == "add":
            prefix = f"r{bank.n}"
            bank.add_row(prefix)
            oracle.add_row(prefix)
        elif kind == "set" and bank.n:
            _, row, queue, outstanding, kv = op
            row %= bank.n
            bank.values[row] = (queue, outstanding, kv)
            oracle.values[row] = [queue, outstanding, kv]
        elif kind == "retire" and bank.n:
            row = op[1] % bank.n
            bank.retire(row)
            oracle.live[row] = False
        elif kind == "sample":
            ts += op[1]
            bank.sample(ts)
            oracle.sample(ts)
    return registry, bank, oracle


class TestGaugeBank:
    """The bank's statistics equal the per-gauge list fold, bit for bit."""

    def test_int_samples_stay_ints(self):
        registry, bank, oracle = _drive([
            ("add",), ("set", 0, 3, 700, 0.25), ("sample", 0.0),
            ("set", 0, 5, 20, 0.5), ("sample", 1.5), ("sample", 2.0),
        ])
        _bank_matches(registry, bank, oracle)
        stats = registry.snapshot().gauges
        for name in ("r0.queue_depth", "r0.outstanding_tokens"):
            for field_ in ("last", "minimum", "maximum"):
                assert type(getattr(stats[name], field_)) is int
        assert stats["r0.queue_depth"].maximum == 5
        assert type(stats["r0.kv_occupancy"].minimum) is float

    def test_single_sample_keeps_its_int(self):
        registry, bank, oracle = _drive([("add",), ("set", 0, 4, 9, 0.1), ("sample", 3.0)])
        _bank_matches(registry, bank, oracle)
        assert registry.snapshot().gauges["r0.queue_depth"].time_weighted_mean == 4

    def test_retired_rows_are_skipped(self):
        registry, bank, oracle = _drive([
            ("add",), ("add",), ("set", 1, 2, 2, 0.2), ("sample", 0.0),
            ("retire", 0), ("set", 0, 99, 99, 0.99), ("sample", 1.0),
            ("set", 1, 7, 1, 0.7), ("sample", 2.0),
        ])
        _bank_matches(registry, bank, oracle)
        gauges = registry.snapshot().gauges
        assert gauges["r0.queue_depth"].num_samples == 1
        assert gauges["r0.queue_depth"].maximum == 0
        assert gauges["r1.queue_depth"].num_samples == 3

    def test_row_retired_before_its_first_sample_never_registers(self):
        registry, bank, oracle = _drive([
            ("add",), ("add",), ("retire", 0), ("sample", 1.0), ("sample", 1.0),
        ])
        _bank_matches(registry, bank, oracle)
        assert "r0.queue_depth" not in registry.snapshot().gauges

    def test_late_row_registers_after_earlier_gauges(self):
        registry = MetricsRegistry()
        bank = GaugeBank(registry, _SIGNALS, _INTS)
        bank.add_row("a")
        bank.sample(0.0)
        registry.gauge("fleet.serving").set(1, ts_s=0.5)
        bank.add_row("b")
        bank.values[1] = (1, 2, 0.5)
        bank.sample(1.0)
        bank.values[1] = (3, 4, 0.25)
        bank.sample(4.0)
        bank.flush()
        gauges = registry.snapshot().gauges
        assert list(gauges) == [
            "a.queue_depth", "a.outstanding_tokens", "a.kv_occupancy",
            "fleet.serving",
            "b.queue_depth", "b.outstanding_tokens", "b.kv_occupancy",
        ]
        late = gauges["b.kv_occupancy"]
        assert late.num_samples == 2
        assert late.time_weighted_mean == 0.5  # 0.5 held over [1, 4)

    def test_zero_span_samples_average_plainly(self):
        registry, bank, oracle = _drive([
            ("add",), ("set", 0, 1, 10, 0.1), ("sample", 2.0),
            ("set", 0, 2, 20, 0.7), ("sample", 0.0),
            ("set", 0, 6, 30, 0.2), ("sample", 0.0),
        ])
        _bank_matches(registry, bank, oracle)
        gauges = registry.snapshot().gauges
        assert gauges["r0.queue_depth"].time_weighted_mean == 3.0
        assert gauges["r0.kv_occupancy"].time_weighted_mean == sum(
            [0.1, 0.7, 0.2]
        ) / 3

    def test_zero_span_list_dropped_once_time_moves(self):
        registry, bank, oracle = _drive([
            ("add",), ("set", 0, 1, 1, 0.1), ("sample", 0.0), ("sample", 0.0),
            ("set", 0, 4, 4, 0.4), ("sample", 2.0), ("add",), ("sample", 0.0),
            ("sample", 0.0), ("sample", 1.0),
        ])
        _bank_matches(registry, bank, oracle)

    def test_out_of_order_sample_raises(self):
        bank = GaugeBank(MetricsRegistry(), _SIGNALS, _INTS)
        bank.add_row("a")
        bank.sample(2.0)
        with pytest.raises(ValueError, match="out-of-order"):
            bank.sample(1.0)

    def test_grows_past_initial_capacity(self):
        ops = [("add",)] * 20 + [("set", i, i, 2 * i, i / 20) for i in range(20)]
        registry, bank, oracle = _drive(ops + [("sample", 1.0), ("sample", 2.5)])
        _bank_matches(registry, bank, oracle)

    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add")),
                st.tuples(
                    st.just("set"),
                    st.integers(0, 15),
                    st.integers(0, 5000),
                    st.integers(0, 10**6),
                    st.floats(allow_nan=True, allow_infinity=False, width=64),
                ),
                st.tuples(st.just("retire"), st.integers(0, 15)),
                st.tuples(
                    st.just("sample"),
                    st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
                ),
            ),
            max_size=60,
        )
    )
    def test_matches_list_fold(self, ops):
        registry, bank, oracle = _drive(ops)
        _bank_matches(registry, bank, oracle)


class TestHistogram:
    def test_bucket_counts(self):
        hist = Histogram("ttft", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.record(v)
        assert hist.counts == [1, 2, 1, 1]  # last is the overflow bucket

    def test_boundary_goes_to_lower_bucket(self):
        hist = Histogram("x", buckets=(1.0, 2.0))
        hist.record(1.0)  # <= 1.0 bucket
        assert hist.counts == [1, 0, 0]

    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(3)
        hist = Histogram("itl")
        values = rng.exponential(0.02, size=500)
        for v in values:
            hist.record(float(v))
        for q in (50, 90, 99):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(2.0,))


class TestSnapshot:
    def test_snapshot_contents(self):
        registry = MetricsRegistry()
        registry.counter("admitted").inc(5)
        registry.gauge("depth").set(2, ts_s=0.0)
        registry.gauge("depth").set(4, ts_s=1.0)
        hist = registry.histogram("ttft_s")
        for v in (0.1, 0.2, 0.3):
            hist.record(v)
        snap = registry.snapshot()
        assert snap.counters["admitted"] == 5
        assert snap.gauges["depth"].minimum == 2
        assert snap.gauges["depth"].maximum == 4
        assert snap.histograms["ttft_s"].count == 3
        assert snap.histograms["ttft_s"].p50 == pytest.approx(0.2)

    def test_snapshot_is_immutable_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        snap = registry.snapshot()
        registry.counter("n").inc()
        assert snap.counters["n"] == 1  # snapshot frozen at capture time

    def test_render_contains_percentile_headers(self):
        registry = MetricsRegistry()
        registry.histogram("ttft_s").record(0.5)
        text = registry.snapshot().render()
        assert "p50" in text and "p90" in text and "p99" in text
        assert "ttft_s" in text


class TestSnapshotRoundTrip:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("admitted").inc(5)
        registry.gauge("depth").set(2, ts_s=0.0)
        registry.gauge("depth").set(4, ts_s=1.0)
        hist = registry.histogram("ttft_s")
        for v in (0.1, 0.2, 0.3):
            hist.record(v)
        return registry.snapshot()

    def test_round_trip_is_lossless(self):
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        assert rebuilt.to_json_dict() == snap.to_json_dict()

    def test_round_trip_through_json_text(self):
        snap = self._snapshot()
        payload = json.loads(json.dumps(snap.to_json_dict()))
        rebuilt = MetricsSnapshot.from_json_dict(payload)
        assert rebuilt.to_json_dict() == snap.to_json_dict()

    def test_integer_gauge_samples_stay_integers(self):
        # Byte-identical bundle replay depends on 4 not becoming 4.0.
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        assert rebuilt.gauges["depth"].maximum == 4
        assert isinstance(rebuilt.gauges["depth"].maximum, int)

    def test_nan_round_trips_via_null(self):
        registry = MetricsRegistry()
        registry.histogram("empty_s")  # no samples: NaN percentiles
        snap = registry.snapshot()
        payload = snap.to_json_dict()
        assert payload["histograms"]["empty_s"]["p50"] is None
        rebuilt = MetricsSnapshot.from_json_dict(
            json.loads(json.dumps(payload))
        )
        assert math.isnan(rebuilt.histograms["empty_s"].p50)
        assert rebuilt.to_json_dict() == payload

    def test_histogram_stats_preserved(self):
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        hist = rebuilt.histograms["ttft_s"]
        assert hist.count == 3
        assert hist.p50 == pytest.approx(0.2)
        assert hist.bucket_counts == snap.histograms["ttft_s"].bucket_counts
