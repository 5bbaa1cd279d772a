"""Deterministic fault injection for the cluster simulator.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`FaultEvent`\\ s the control plane replays against a cluster run.
Three fault kinds model the failure modes a production serving fleet
actually sees:

* ``crash`` — a replica dies at ``at_s`` and never returns.  Every
  request resident on it (queued or running) is re-queued to the router
  and retried under the :class:`RetryPolicy`'s capped exponential
  backoff; the autoscaler is how the fleet regains capacity.
* ``slowdown`` — a straggler window: the replica's step costs are
  multiplied by ``factor`` for ``duration_s`` seconds (thermal
  throttling, a noisy neighbour, ECC scrubbing), applied through the
  ``EngineRun.cost_scale`` hook.
* ``kv_loss`` — in disaggregated mode, every prefill→decode KV handoff
  that lands inside the window is lost in transit; the request restarts
  from the prefill fleet after backoff.

Schedules serialize to/from JSON (the ``--faults`` CLI flag) and can be
drawn from a seeded RNG with :meth:`FaultSchedule.generate`; given the
same seed and fleet, the generated schedule — and therefore the whole
chaos run, retry timing included — is bit-reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultSchedule", "RetryPolicy"]

#: Recognized fault kinds.
FAULT_KINDS = ("crash", "slowdown", "kv_loss")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault on the simulation clock.

    ``replica`` names the victim (``replica1``, ``decode0``, ...) for
    ``crash``/``slowdown``; ``kv_loss`` applies fleet-wide to the handoff
    fabric and ignores it.  ``duration_s`` bounds ``slowdown``/``kv_loss``
    windows; ``factor`` is the slowdown's step-cost multiplier.
    """

    kind: str
    at_s: float
    replica: str | None = None
    duration_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        for name in ("at_s", "duration_s", "factor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.at_s < 0.0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.kind in ("slowdown", "kv_loss") and self.duration_s <= 0.0:
            raise ValueError(f"{self.kind} needs duration_s > 0, got {self.duration_s}")
        if self.kind == "slowdown":
            if self.replica is None:
                raise ValueError("slowdown needs a target replica")
            if self.factor <= 1.0:
                raise ValueError(f"slowdown factor must be > 1, got {self.factor}")
        if self.kind == "crash" and self.replica is None:
            raise ValueError("crash needs a target replica")

    @property
    def end_s(self) -> float:
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class FaultSchedule:
    """Time-sorted, immutable set of fault events for one cluster run."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.at_s, e.kind)))
        object.__setattr__(self, "events", ordered)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def kv_loss_windows(self) -> tuple[tuple[float, float], ...]:
        """(start_s, end_s) of every KV-handoff-loss window."""
        return tuple(
            (e.at_s, e.end_s) for e in self.events if e.kind == "kv_loss"
        )

    def replica_names(self) -> tuple[str, ...]:
        """Every replica a crash/slowdown event targets (sorted, unique)."""
        return tuple(
            sorted({e.replica for e in self.events if e.replica is not None})
        )

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"events": [asdict(e) for e in self.events]}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultSchedule":
        events = payload.get("events")
        if not isinstance(events, list):
            raise ValueError("fault spec must carry an 'events' list")
        return cls(tuple(FaultEvent(**record) for record in events))

    @classmethod
    def load(cls, path: str | Path) -> "FaultSchedule":
        """Parse a ``--faults`` JSON spec file."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    # -- seeded generation ---------------------------------------------

    @classmethod
    def generate(
        cls,
        replicas: list[str],
        horizon_s: float,
        seed: int = 0,
        num_crashes: int = 1,
        num_slowdowns: int = 1,
        num_kv_losses: int = 0,
        slowdown_factor: float = 2.5,
        slowdown_duration_s: float | None = None,
        kv_loss_duration_s: float | None = None,
    ) -> "FaultSchedule":
        """Draw a random schedule over ``[0.1, 0.9] * horizon_s`` (seeded).

        Crash victims are drawn without replacement (a replica dies at
        most once); slowdown and kv-loss windows default (when ``None``)
        to a tenth of the horizon.  The same seed and fleet always produce
        the same schedule, so chaos runs diff clean.
        """
        if not replicas:
            raise ValueError("cannot generate faults for an empty fleet")
        for name, value in (
            ("horizon_s", horizon_s),
            ("slowdown_duration_s", slowdown_duration_s),
            ("kv_loss_duration_s", kv_loss_duration_s),
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if num_crashes > len(replicas):
            raise ValueError(
                f"cannot crash {num_crashes} of {len(replicas)} replicas"
            )
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * horizon_s, 0.9 * horizon_s
        if slowdown_duration_s is None:
            slowdown_duration_s = 0.1 * horizon_s
        if kv_loss_duration_s is None:
            kv_loss_duration_s = 0.1 * horizon_s
        events: list[FaultEvent] = []
        victims = rng.choice(len(replicas), size=num_crashes, replace=False)
        for victim in victims:
            events.append(
                FaultEvent(
                    "crash",
                    at_s=float(rng.uniform(lo, hi)),
                    replica=replicas[int(victim)],
                )
            )
        for _ in range(num_slowdowns):
            events.append(
                FaultEvent(
                    "slowdown",
                    at_s=float(rng.uniform(lo, hi)),
                    replica=replicas[int(rng.integers(len(replicas)))],
                    duration_s=slowdown_duration_s,
                    factor=slowdown_factor,
                )
            )
        for _ in range(num_kv_losses):
            events.append(
                FaultEvent(
                    "kv_loss",
                    at_s=float(rng.uniform(lo, hi)),
                    duration_s=kv_loss_duration_s,
                )
            )
        return cls(tuple(events))


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with a per-request retry budget.

    A request displaced by a fault waits ``backoff_s(attempt)`` before
    re-entering the router: ``base * factor**attempt`` capped at
    ``cap_s``.  After ``max_retries`` displacements it is marked FAILED
    rather than retried — the budget that keeps a dying fleet from
    retrying itself to death.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0 or self.backoff_cap_s <= 0:
            raise ValueError("backoff bounds must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.backoff_cap_s, self.backoff_base_s * self.backoff_factor**attempt)
