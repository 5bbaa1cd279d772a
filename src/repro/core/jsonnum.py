"""JSON-safe numbers: ``null`` for NaN/±inf on write, NaN on read.

JSON has no NaN or infinity, so every deterministic JSON output uses
this rule.  Two conventions exist, and each output keeps its own so its
bytes never change: :func:`json_num`/:func:`from_json_num` pass numbers
through untouched (an int stays an int, so integer-valued snapshot and
profile fields round-trip byte-identically), while
:func:`json_float`/:func:`from_json_float` coerce to ``float`` first.
"""

from __future__ import annotations

import math

__all__ = ["from_json_float", "from_json_num", "json_float", "json_num"]


def json_num(value: float) -> float | None:
    """``value`` unchanged, or ``None`` for NaN/±inf."""
    return value if math.isfinite(value) else None


def from_json_num(value: float | None) -> float:
    """Inverse of :func:`json_num`: ``None`` back to NaN, numbers
    untouched."""
    return float("nan") if value is None else value


def json_float(value: float) -> float | None:
    """``float(value)``, or ``None`` for NaN/±inf."""
    value = float(value)
    return value if math.isfinite(value) else None


def from_json_float(value: object) -> float:
    """Inverse of :func:`json_float`: ``None`` back to NaN."""
    return float("nan") if value is None else float(value)  # type: ignore[arg-type]
