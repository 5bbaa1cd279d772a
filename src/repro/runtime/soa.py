"""Struct-of-arrays request state for the vectorized engine core.

:class:`RequestTable` mirrors a scheduler's ``running`` list as parallel
numpy columns (input tokens, output budget, generated so far), row ``i``
always describing ``running[i]``.  The vectorized engine core
(``ServingEngine(core="vector")``) commits whole decode spans and prefill
rider chunks against these columns — one array operation instead of a
Python loop over request objects — and syncs objects back lazily:

* **finishers eagerly** — a request that completes inside a committed
  span has its ``generated_tokens``/``finish_time``/``state`` written
  immediately, so retirement, metrics observation and cluster stitching
  see exactly what the scalar reference core would have written;
* **everything else at flush points** — ``EngineRun.result()`` and the
  reference ``outstanding_tokens_scan()`` call :meth:`flush`, which
  writes ``generated_tokens`` back to requests still owned by the
  scheduler (state PREFILLING/DECODING).  Requests that left the
  engine's custody mid-run (cluster crash victims wound back by the
  control plane) are deliberately skipped so the flush cannot clobber
  control-plane resets.

All columns are int64 and all commits are integer arithmetic, so the
table is exact — equivalence with the scalar core is bit-identity, not
tolerance (enforced by ``tests/test_vector_core.py``).  The table also
keeps the sum of context lengths (input + generated over all rows) as a
running Python int, adjusted by every row operation, so the span logic
reads it in O(1) instead of reducing two columns per decode span.
"""

from __future__ import annotations

import numpy as np

from repro.core.request import GenerationRequest, RequestState

__all__ = ["RequestTable"]

_MIN_CAPACITY = 64


class RequestTable:
    """Parallel int64 columns over a scheduler's running set."""

    __slots__ = ("_input", "_output", "_generated", "n", "_context")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(capacity, _MIN_CAPACITY)
        self._input = np.empty(capacity, dtype=np.int64)
        self._output = np.empty(capacity, dtype=np.int64)
        self._generated = np.empty(capacity, dtype=np.int64)
        self.n = 0
        self._context = 0  # sum of input + generated over rows [0, n)

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Row maintenance (mirrors scheduler.running mutations).

    def _grow(self) -> None:
        capacity = len(self._input) * 2
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self.n] = column[: self.n]
            setattr(self, name, grown)

    def append(self, request: GenerationRequest) -> None:
        """Add a row for a freshly admitted request (``running.append``)."""
        if self.n == len(self._input):
            self._grow()
        i = self.n
        self._input[i] = request.input_tokens
        self._output[i] = request.output_tokens
        self._generated[i] = request.generated_tokens
        self._context += request.input_tokens + request.generated_tokens
        self.n = i + 1

    def sync_tail(self, running: list[GenerationRequest], count: int) -> None:
        """Re-copy the last ``count`` rows from their objects.

        Called after a prefill pass mutated the admitted requests through
        the scalar object path (first token, preempted-resume state): the
        admitted set always occupies the table's tail because admission
        appends and nothing retires mid-pass.
        """
        gen = self._generated
        for i in range(self.n - count, self.n):
            generated = running[i].generated_tokens
            self._context += generated - int(gen[i])
            gen[i] = generated

    def drop(self, index: int) -> None:
        """Remove one row preserving order (``running.remove`` analogue)."""
        n = self.n
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for table of {n}")
        self._context -= int(self._input[index] + self._generated[index])
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            column[index : n - 1] = column[index + 1 : n]
        self.n = n - 1

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the rows where the boolean mask ``keep`` (one entry
        per row) is True, preserving order."""
        n = self.n
        gone = ~keep
        self._context -= int(self._input[:n][gone].sum()) + int(
            self._generated[:n][gone].sum()
        )
        m = n - int(np.count_nonzero(gone))
        for name in ("_input", "_output", "_generated"):
            column = getattr(self, name)
            column[:m] = column[:n][keep]
        self.n = m

    def clear(self) -> None:
        self.n = 0
        self._context = 0

    # ------------------------------------------------------------------
    # Reductions the engine's span logic needs (all exact int arithmetic).

    def min_remaining(self) -> int:
        """Fewest output tokens any running request still owes."""
        n = self.n
        return int((self._output[:n] - self._generated[:n]).min())

    def context_sum(self) -> int:
        """Sum of current context lengths (input + generated), O(1)."""
        return self._context

    def finished_rows(self) -> np.ndarray:
        """Sorted row indices whose generation budget is exhausted."""
        n = self.n
        return np.nonzero(self._generated[:n] >= self._output[:n])[0]

    # ------------------------------------------------------------------
    # Vectorized commits.

    def commit_decode(self, steps: int) -> np.ndarray:
        """Advance every row by ``steps`` tokens; returns finished rows.

        The caller guarantees ``steps <= min_remaining()`` (the span rule),
        so no row overshoots its budget and every finisher finishes exactly
        at the span's last step — the same invariant the scalar reference
        loop enforces via ``record_token``.
        """
        n = self.n
        gen = self._generated[:n]
        gen += steps
        self._context += n * steps
        return np.nonzero(gen >= self._output[:n])[0]

    def commit_rider_chunk(self, count: int) -> tuple[int, np.ndarray]:
        """One rider token for the first ``count`` rows that still owe output.

        Returns ``(tokens_given, newly_finished_rows)`` — the vectorized
        equivalent of the scalar per-chunk rider loop in ``_run_prefill``.
        """
        gen = self._generated[:count]
        out = self._output[:count]
        active = gen < out
        gen += active  # one token to each still-active rider
        newly = np.nonzero(active & (gen >= out))[0]
        given = int(np.count_nonzero(active))
        self._context += given
        return given, newly

    # ------------------------------------------------------------------
    # Object synchronization.

    def generated_of(self, index: int) -> int:
        return int(self._generated[index])

    def flush(self, running: list[GenerationRequest]) -> None:
        """Write ``generated_tokens`` back to scheduler-owned objects.

        Only requests still in PREFILLING/DECODING state are touched:
        finishers were synced eagerly at commit time, and requests the
        control plane reclaimed (crash victims reset to QUEUED/FAILED)
        must keep their reset state.
        """
        gen = self._generated
        for i in range(self.n):
            request = running[i]
            if request.state in (RequestState.PREFILLING, RequestState.DECODING):
                request.generated_tokens = int(gen[i])
