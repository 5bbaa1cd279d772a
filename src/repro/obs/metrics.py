"""Metrics registry: counters, gauges and histograms for the simulator.

The registry is the numeric companion to the event tracer
(:mod:`repro.obs.tracer`): where the tracer answers *when* something
happened, the registry answers *how much / how often* — TTFT and ITL
percentiles, queue depth over time, KV-pool occupancy, batch size per
iteration.  A :class:`MetricsRegistry` snapshots into an immutable
:class:`MetricsSnapshot` that rides on ``EngineResult`` and renders into
the bench report and dashboard.

Percentiles use linear interpolation between closest ranks — the same
convention as ``numpy.percentile``'s default — so registry numbers agree
with post-hoc numpy analysis to the float (tested).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.jsonnum import from_json_num, json_num

__all__ = [
    "Counter",
    "Gauge",
    "GaugeBank",
    "Histogram",
    "HistogramStats",
    "GaugeStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "percentile",
]

#: Default histogram buckets (seconds): spans sub-ms ITLs to minute-scale
#: makespans at roughly 4 buckets per decade.
DEFAULT_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (numpy-compatible)."""
    if not samples:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """Monotonically increasing count (admissions, preemptions, tokens)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Sampled value over time (queue depth, KV occupancy, batch size).

    Keeps streaming statistics, not the samples: O(1) time and memory per
    :meth:`set`.  Every statistic equals what a fold over the full sample
    list would give, bit for bit — min/max replace on ``<``/``>`` exactly
    as the ``min()``/``max()`` builtins do (NaN order included), and the
    time-weighted sum adds each held interval in sample order.  The one
    value list kept is for the zero-span fallback (every sample at one
    instant: a plain mean through ``sum()``, compensated on Python 3.12+),
    and it is dropped at the first sample with a later timestamp.
    """

    __slots__ = (
        "name", "count", "minimum", "maximum", "_first_ts", "_last_ts",
        "_last_value", "_weighted", "_instant_values",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.minimum: float = float("nan")
        self.maximum: float = float("nan")
        self._first_ts = float("-inf")
        self._last_ts = float("-inf")
        self._last_value: float = float("nan")
        self._weighted = 0.0  # sum of value * held interval
        # Samples while all share the first timestamp; None afterwards.
        self._instant_values: list[float] | None = None

    def set(self, value: float, ts_s: float = 0.0) -> None:
        last_ts = self._last_ts
        # Samples must arrive in time order: the time-weighted mean and
        # hold-last semantics silently corrupt on a rewound clock, so an
        # out-of-order set fails loudly (equal timestamps are fine — the
        # engine samples several gauges at the same instant).  Written as
        # ``not >=`` so a NaN timestamp fails too, first sample included
        # (``last_ts`` starts at -inf).
        if not ts_s >= last_ts:
            if ts_s != ts_s:
                raise ValueError(f"NaN timestamp on gauge {self.name!r}")
            raise ValueError(
                f"out-of-order sample on gauge {self.name!r}: "
                f"ts {ts_s} < last ts {last_ts}"
            )
        if self.count:
            self._weighted += self._last_value * (ts_s - last_ts)
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            instant = self._instant_values
            if instant is not None:
                if ts_s == self._first_ts:
                    instant.append(value)
                else:
                    self._instant_values = None
        else:
            self._first_ts = ts_s
            self.minimum = self.maximum = value
            self._instant_values = [value]
        self._last_ts = ts_s
        self._last_value = value
        self.count += 1

    @property
    def last(self) -> float:
        return self._last_value

    def time_weighted_mean(self) -> float:
        """Mean weighted by the interval each sample was in effect."""
        if self.count <= 1:
            return self._last_value  # NaN when empty
        span = self._last_ts - self._first_ts
        if span <= 0.0:
            return sum(self._instant_values) / self.count
        return self._weighted / span


class GaugeBank:
    """Rows of gauges sampled together, updated in one array pass.

    Each row is a group of gauges that are always sampled at the same
    instant (one cluster replica's queue depth, outstanding tokens and KV
    occupancy): the owner writes a row's current values into
    :attr:`values` whenever they change, and :meth:`sample` records every
    live row at once — one elementwise numpy pass instead of one
    :meth:`Gauge.set` per gauge.  :meth:`flush` writes the statistics
    into the registry's :class:`Gauge` objects, which then snapshot
    exactly as if every sample had gone through :meth:`Gauge.set`:

    * a row's gauges are registered in the registry on the row's first
      sample, so registry order follows first sampling, rows added late
      included;
    * the time-weighted sum adds ``last * (ts - last_ts)`` per sample and
      min/max replace on ``<``/``>`` — the same IEEE operations in the
      same order as the scalar fold;
    * signals flagged ``integer`` hold exact integers in the float64
      columns (below 2**53) and come back out as Python ints;
    * the zero-span fallback keeps each row's values as a list while all
      its samples share the first timestamp, as :class:`Gauge` does (as
      floats: integer samples below 2**53 sum to the same plain mean).

    Retired rows (:meth:`retire`, e.g. a crashed replica) are skipped by
    every later sample.  Samples must arrive in time order.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        signals: Sequence[str],
        integer: Sequence[bool],
    ) -> None:
        if len(signals) != len(integer):
            raise ValueError("one integer flag per signal")
        self._registry = registry
        self._signals = tuple(signals)
        self._integer = tuple(integer)
        k = len(self._signals)
        capacity = 8
        self.values = np.zeros((capacity, k))
        self._minimum = np.zeros((capacity, k))
        self._maximum = np.zeros((capacity, k))
        self._last = np.zeros((capacity, k))
        self._weighted = np.zeros((capacity, k))
        self._first_ts = np.zeros(capacity)
        self._last_ts = np.zeros(capacity)
        self._count = np.zeros(capacity, dtype=np.int64)
        self._live = np.zeros(capacity, dtype=bool)
        self._prefixes: list[str] = []
        self._gauges: list[tuple[Gauge, ...] | None] = []
        # Per-row sample values while all share the first timestamp.
        self._instant: dict[int, list[list]] = {}
        self._unregistered = 0  # live rows not sampled yet
        self._all_live = True  # no row retired: sample slices, not masks
        self._last_sample_ts = float("-inf")
        self.n = 0

    def add_row(self, prefix: str) -> None:
        """Append a row (index ``n``) whose gauges are named
        ``f"{prefix}.{signal}"``.  Its values start at zero."""
        i = self.n
        if i == len(self._count):
            self._grow()
        self._prefixes.append(prefix)
        self._gauges.append(None)
        self._live[i] = True
        self._unregistered += 1
        self.n = i + 1

    def _grow(self) -> None:
        for name in (
            "values", "_minimum", "_maximum", "_last", "_weighted",
            "_first_ts", "_last_ts", "_count", "_live",
        ):
            column = getattr(self, name)
            grown = np.zeros((2 * len(column),) + column.shape[1:], column.dtype)
            grown[: len(column)] = column
            setattr(self, name, grown)

    def retire(self, row: int) -> None:
        """Stop sampling ``row`` (its statistics so far are kept)."""
        if self._live[row]:
            self._live[row] = False
            self._all_live = False
            if self._gauges[row] is None:
                self._unregistered -= 1

    def sample(self, ts_s: float) -> None:
        """Record every live row's current :attr:`values` at ``ts_s``."""
        previous = self._last_sample_ts
        if not ts_s >= previous:
            raise ValueError(
                f"out-of-order sample on gauge bank: ts {ts_s} < last ts "
                f"{previous}"
            )
        self._last_sample_ts = ts_s
        n = self.n
        values = self.values[:n]
        last = self._last[:n]
        minimum = self._minimum[:n]
        maximum = self._maximum[:n]
        if not self._unregistered and self._all_live:
            # Every row took every earlier sample, so each one's last
            # timestamp is the previous sample's and its held interval
            # is one scalar.
            if self._instant:
                self._extend_instant(ts_s, None)
            self._weighted[:n] += last * (ts_s - previous)
            np.copyto(minimum, values, where=values < minimum)
            np.copyto(maximum, values, where=values > maximum)
            last[...] = values
            self._last_ts[:n] = ts_s
            self._count[:n] += 1
            return
        # Rows that already hold samples and take this one.
        count = self._count[:n]
        new = self._live[:n] & (count == 0)
        rows = self._live[:n] & ~new
        if self._instant:
            self._extend_instant(ts_s, rows)
        where = rows[:, None]
        weighted = self._weighted[:n]
        np.add(
            weighted,
            last * (ts_s - self._last_ts[:n])[:, None],
            out=weighted,
            where=where,
        )
        np.copyto(minimum, values, where=(values < minimum) & where)
        np.copyto(maximum, values, where=(values > maximum) & where)
        np.copyto(last, values, where=where)
        np.copyto(self._last_ts[:n], ts_s, where=rows)
        count += rows
        for i in np.flatnonzero(new).tolist():
            self._register(i, ts_s)

    def _register(self, i: int, ts_s: float) -> None:
        """First sample of row ``i``: register its gauges, seed its stats."""
        registry = self._registry
        prefix = self._prefixes[i]
        self._gauges[i] = tuple(
            registry.gauge(f"{prefix}.{signal}") for signal in self._signals
        )
        self._unregistered -= 1
        row = self.values[i]
        self._minimum[i] = self._maximum[i] = self._last[i] = row
        self._weighted[i] = 0.0
        self._first_ts[i] = self._last_ts[i] = ts_s
        self._count[i] = 1
        self._instant[i] = [[v] for v in row.tolist()]

    def _extend_instant(self, ts_s: float, rows: np.ndarray | None) -> None:
        """Zero-span bookkeeping for sampled rows (all when ``rows`` is
        None) still at their first timestamp: keep their values, or drop
        the lists once time moves on."""
        for i in list(self._instant):
            if rows is not None and not rows[i]:
                continue
            if ts_s == self._first_ts[i]:
                for column, value in zip(self._instant[i], self.values[i].tolist()):
                    column.append(value)
            else:
                del self._instant[i]

    def flush(self) -> None:
        """Write every registered row's statistics into its gauges."""
        for i, gauges in enumerate(self._gauges):
            if gauges is None:
                continue
            count = int(self._count[i])
            first_ts = float(self._first_ts[i])
            last_ts = float(self._last_ts[i])
            instant = self._instant.get(i)
            for k, gauge in enumerate(gauges):
                cast = int if self._integer[k] else float
                gauge.count = count
                gauge.minimum = cast(self._minimum[i, k])
                gauge.maximum = cast(self._maximum[i, k])
                gauge._first_ts = first_ts
                gauge._last_ts = last_ts
                gauge._last_value = cast(self._last[i, k])
                gauge._weighted = float(self._weighted[i, k])
                gauge._instant_values = (
                    list(instant[k]) if instant is not None else None
                )


class Histogram:
    """Bucketed distribution that also keeps raw samples.

    Buckets give the dashboard its bar panels; the raw samples give exact
    percentiles (the simulator's runs are small enough that keeping every
    observation is cheaper than being wrong about the tail).
    """

    __slots__ = ("name", "buckets", "counts", "samples")

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS_S
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.samples: list[float] = []

    def record(self, value: float) -> None:
        # Prometheus ``le`` semantics: bucket i counts values <= buckets[i].
        self.counts[bisect_left(self.buckets, value)] += 1
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else float("nan")

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass(frozen=True)
class GaugeStats:
    """Frozen view of one gauge at snapshot time."""

    last: float
    minimum: float
    maximum: float
    time_weighted_mean: float
    num_samples: int


@dataclass(frozen=True)
class HistogramStats:
    """Frozen view of one histogram at snapshot time."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    buckets: tuple[float, ...]
    bucket_counts: tuple[int, ...]

    def as_row(self) -> dict[str, float]:
        return {"count": self.count, "mean": self.mean,
                "p50": self.p50, "p90": self.p90, "p99": self.p99}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable registry state: what ``EngineResult`` and reports carry."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, GaugeStats] = field(default_factory=dict)
    histograms: dict[str, HistogramStats] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable summary table (the ``repro trace`` output)."""
        lines: list[str] = []
        if self.histograms:
            lines.append(
                f"{'histogram':<24}{'count':>7}{'mean':>12}"
                f"{'p50':>12}{'p90':>12}{'p99':>12}"
            )
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"{name:<24}{h.count:>7d}{h.mean:>12.4g}"
                    f"{h.p50:>12.4g}{h.p90:>12.4g}{h.p99:>12.4g}"
                )
        if self.gauges:
            lines.append("")
            lines.append(
                f"{'gauge':<24}{'last':>10}{'min':>10}{'max':>10}{'t-mean':>10}"
            )
            for name in sorted(self.gauges):
                g = self.gauges[name]
                lines.append(
                    f"{name:<24}{g.last:>10.4g}{g.minimum:>10.4g}"
                    f"{g.maximum:>10.4g}{g.time_weighted_mean:>10.4g}"
                )
        if self.counters:
            lines.append("")
            lines.append(f"{'counter':<24}{'value':>10}")
            for name in sorted(self.counters):
                lines.append(f"{name:<24}{self.counters[name]:>10.4g}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, object]:
        """Deterministic JSON-serializable view (non-finite -> null).

        Empty gauges and histograms carry NaN statistics; ``json.dump``
        would emit bare ``NaN`` tokens most parsers reject, so every
        scalar is sanitized through ``null`` instead.
        """
        return {
            "counters": {
                name: json_num(value) for name, value in self.counters.items()
            },
            "gauges": {
                name: {
                    "last": json_num(g.last),
                    "min": json_num(g.minimum),
                    "max": json_num(g.maximum),
                    "time_weighted_mean": json_num(g.time_weighted_mean),
                    "num_samples": g.num_samples,
                }
                for name, g in self.gauges.items()
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": json_num(h.mean),
                    "p50": json_num(h.p50),
                    "p90": json_num(h.p90),
                    "p99": json_num(h.p99),
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                }
                for name, h in self.histograms.items()
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json_dict` (``null`` -> NaN).

        Round-trips losslessly: ``snapshot.to_json_dict()`` equals
        ``MetricsSnapshot.from_json_dict(snapshot.to_json_dict())
        .to_json_dict()`` key-for-key (tested), which is what experiment
        bundles rely on to compare replayed metrics byte-for-byte.
        ``None`` maps back to NaN — ``inf`` is not distinguished, but no
        registry instrument produces infinities.
        """
        counters = {
            name: from_json_num(value)
            for name, value in dict(payload.get("counters", {})).items()
        }
        gauges = {
            name: GaugeStats(
                last=from_json_num(g["last"]),
                minimum=from_json_num(g["min"]),
                maximum=from_json_num(g["max"]),
                time_weighted_mean=from_json_num(g["time_weighted_mean"]),
                num_samples=int(g["num_samples"]),
            )
            for name, g in dict(payload.get("gauges", {})).items()
        }
        histograms = {
            name: HistogramStats(
                count=int(h["count"]),
                mean=from_json_num(h["mean"]),
                p50=from_json_num(h["p50"]),
                p90=from_json_num(h["p90"]),
                p99=from_json_num(h["p99"]),
                buckets=tuple(h["buckets"]),
                bucket_counts=tuple(int(c) for c in h["bucket_counts"]),
            )
            for name, h in dict(payload.get("histograms", {})).items()
        }
        return cls(counters=counters, gauges=gauges, histograms=histograms)


class MetricsRegistry:
    """Named metric instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, buckets)
        elif buckets is not None and tuple(buckets) != inst.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return inst

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={
                name: GaugeStats(
                    last=g.last,
                    minimum=g.minimum,
                    maximum=g.maximum,
                    time_weighted_mean=g.time_weighted_mean(),
                    num_samples=g.count,
                )
                for name, g in self._gauges.items()
            },
            histograms={
                name: HistogramStats(
                    count=h.count,
                    mean=h.mean(),
                    p50=h.percentile(50),
                    p90=h.percentile(90),
                    p99=h.percentile(99),
                    buckets=h.buckets,
                    bucket_counts=tuple(h.counts),
                )
                for name, h in self._histograms.items()
            },
        )
