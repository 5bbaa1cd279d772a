"""Output checks run on every timed simulator run.

Two kinds.  Conservation checks hold for any seed: every trace request
appears exactly once in the result and has ended (FINISHED or FAILED),
a FINISHED request generated exactly its output tokens, and its
milestones are ordered arrival <= admit <= first token <= finish <= the
run's horizon.  For the reference seed the JSON view of the outcome is
also compared with a committed reference: counts, states, preemptions,
failures and scale events exactly, simulated times within a relative
tolerance of 1e-9.  The tolerance leaves room for kernel rewrites that
reorder floating-point arithmetic; anything that changes what the
simulator decides still fails.  The telemetry series are not compared:
they describe the simulated fleet's gauges, which a change may sample
differently without changing any outcome.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-9
MAX_PROBLEMS = 8

#: Payload keys left out of the reference comparison.
UNCOMPARED = frozenset({"telemetry"})


def conservation(trace, requests, horizon_s: float) -> list[str]:
    """Problems with the simulated outcome that no seed may show."""
    problems: list[str] = []
    seen: dict[int, int] = {}
    for request in requests:
        seen[id(request)] = seen.get(id(request), 0) + 1
    if len(requests) != len(trace) or any(seen.get(id(r)) != 1 for r in trace):
        problems.append(
            f"result lists {len(requests)} requests for a trace of {len(trace)}, "
            "or lists one twice"
        )
    slack = REL_TOL * max(1.0, abs(horizon_s))
    for i, r in enumerate(requests):
        if len(problems) >= MAX_PROBLEMS:
            break
        if r.state == "failed":
            continue
        if r.state != "finished":
            problems.append(f"request {i} never ended (state {r.state})")
            continue
        if r.generated_tokens != r.output_tokens:
            problems.append(
                f"request {i} finished with {r.generated_tokens} of "
                f"{r.output_tokens} output tokens"
            )
        times = (r.arrival_time, r.admit_time, r.first_token_time, r.finish_time)
        if any(t is None for t in times):
            problems.append(f"request {i} finished without all milestones {times}")
        elif not (times[0] <= times[1] <= times[2] <= times[3] <= horizon_s + slack):
            problems.append(
                f"request {i} milestones out of order: arrival/admit/first/finish "
                f"{times} (horizon {horizon_s})"
            )
    return problems


def failed_requests(requests) -> int:
    """Simulated requests that ended FAILED or never ended."""
    return sum(1 for r in requests if r.state != "finished")


def _strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in UNCOMPARED}


def write_reference(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(_strip(payload), sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical across regenerations.
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(data.encode("utf-8"))


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def compare(actual: dict, expected: dict) -> list[str]:
    """Differences between a payload and its reference (see module doc)."""
    problems: list[str] = []
    # A JSON round trip gives the payload the reference's types (lists for
    # tuples, plain floats).
    actual = json.loads(json.dumps(_strip(actual)))
    _diff(actual, _strip(expected), "", problems)
    return problems


def _diff(actual, expected, where: str, problems: list[str]) -> None:
    if len(problems) >= MAX_PROBLEMS:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            keys = sorted(set(actual) ^ set(expected))
            problems.append(f"{where or 'payload'}: keys {keys} differ")
            return
        for key in sorted(expected):
            _diff(actual[key], expected[key], f"{where}.{key}" if where else key, problems)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            problems.append(f"{where}: {len(actual)} entries, reference has {len(expected)}")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            _diff(a, e, f"{where}[{i}]", problems)
        return
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (actual, expected)
    )
    if numbers and (isinstance(actual, float) or isinstance(expected, float)):
        same = math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0) or (
            math.isnan(actual) and math.isnan(expected)
        )
    else:
        same = actual == expected and type(actual) is type(expected)
    if not same:
        problems.append(f"{where}: {actual!r}, reference {expected!r}")
