"""KV-cache allocators: paged (vLLM PagedAttention) and contiguous.

The paged allocator manages a fixed pool of fixed-size blocks with a block
table per sequence — the Fig. 2b mechanism.  The contiguous allocator
reserves a sequence's full final context up front — llama.cpp / Gaudi2 /
SambaFlow behaviour, and the reason those stacks OOM earlier.

Both allocators work in *token* units internally and expose byte accounting
through the deployment's per-token KV size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["AllocationError", "KVAllocator", "PagedKVAllocator", "ContiguousKVAllocator"]


class AllocationError(RuntimeError):
    """Raised when the KV pool cannot satisfy a reservation."""


class KVAllocator:
    """Interface shared by both allocator flavours.

    Allocators optionally carry a :class:`~repro.obs.tracer.Tracer` and
    emit ``kv_alloc`` counter samples on admit/free (pool occupancy over
    time, stamped at the tracer's clock).  Appends (per token or in bulk)
    are not traced — that path is the simulator's hottest.

    ``used_tokens`` is a running count kept by every mutation (admit,
    appends, free), not a scan over the resident sequences: fleet
    gauges read it once per replica per routing decision."""

    tracer: Tracer = NULL_TRACER

    def _trace_pool(self, name: str) -> None:
        self.tracer.counter(
            "kv_alloc",
            "kv_pool",
            event=name,
            used_tokens=self.used_tokens,
            capacity_tokens=self.capacity_tokens,
        )

    def can_admit(self, final_context_tokens: int) -> bool:
        raise NotImplementedError

    def admit(self, seq_id: int, prompt_tokens: int, final_context_tokens: int) -> None:
        raise NotImplementedError

    def append_token(self, seq_id: int) -> None:
        raise NotImplementedError

    def free(self, seq_id: int) -> None:
        raise NotImplementedError

    @property
    def used_tokens(self) -> int:
        raise NotImplementedError

    @property
    def capacity_tokens(self) -> int:
        raise NotImplementedError


@dataclass
class _PagedSequence:
    prompt_tokens: int
    context_tokens: int
    reserved_blocks: int  # conservative reservation for the final context
    mapped_blocks: int  # blocks actually holding tokens so far
    growable: bool = False  # optimistic admission: reservation grows on demand


class PagedKVAllocator(KVAllocator):
    """Fixed-size block pool with per-sequence block tables.

    Two admission policies: *conservative* (default) reserves the final
    context up front so growth never fails; *optimistic* (vLLM's actual
    policy) reserves only the prompt's blocks and grows on demand, packing
    more sequences at the cost of possible preemption when the pool runs
    dry mid-decode.
    """

    def __init__(
        self, total_blocks: int, block_size: int, tracer: Tracer = NULL_TRACER
    ) -> None:
        if total_blocks < 1:
            raise ValueError(f"total_blocks must be >= 1, got {total_blocks}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.total_blocks = total_blocks
        self.block_size = block_size
        self.tracer = tracer
        self._sequences: dict[int, _PagedSequence] = {}
        self._reserved_blocks = 0
        self._used_tokens = 0  # running sum of context_tokens

    def _blocks_for(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._reserved_blocks

    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    def can_admit(self, final_context_tokens: int) -> bool:
        return self._blocks_for(final_context_tokens) <= self.free_blocks

    def admit(
        self,
        seq_id: int,
        prompt_tokens: int,
        final_context_tokens: int,
        optimistic: bool = False,
    ) -> None:
        """Admit a sequence.

        Conservative (default): reserve blocks for the *final* context up
        front, so growth can never fail.  Optimistic (vLLM's actual
        policy): reserve only the prompt's blocks and allocate on demand
        as the sequence grows — more sequences fit, but ``append_token``
        may raise and force a preemption.
        """
        if seq_id in self._sequences:
            raise AllocationError(f"sequence {seq_id} already admitted")
        if prompt_tokens < 1 or final_context_tokens < prompt_tokens:
            raise ValueError("need 1 <= prompt_tokens <= final_context_tokens")
        reserve_for = prompt_tokens if optimistic else final_context_tokens
        needed = self._blocks_for(reserve_for)
        if needed > self.free_blocks:
            raise AllocationError(
                f"sequence {seq_id} needs {needed} blocks, {self.free_blocks} free"
            )
        self._sequences[seq_id] = _PagedSequence(
            prompt_tokens=prompt_tokens,
            context_tokens=prompt_tokens,
            reserved_blocks=needed,
            mapped_blocks=self._blocks_for(prompt_tokens),
            growable=optimistic,
        )
        self._reserved_blocks += needed
        self._used_tokens += prompt_tokens
        if self.tracer.enabled:
            self._trace_pool("admit")

    def append_token(self, seq_id: int) -> None:
        seq = self._require(seq_id)
        needed = self._blocks_for(seq.context_tokens + 1)
        if needed > seq.reserved_blocks:
            if not seq.growable:
                raise AllocationError(
                    f"sequence {seq_id} grew past its reservation "
                    f"({seq.context_tokens + 1} tokens > "
                    f"{seq.reserved_blocks * self.block_size})"
                )
            # Grow the reservation on demand (optimistic sequences).
            growth = needed - seq.reserved_blocks
            if growth > self.free_blocks:
                raise AllocationError(
                    f"sequence {seq_id} needs {growth} more block(s); "
                    f"{self.free_blocks} free (preemption required)"
                )
            seq.reserved_blocks = needed
            self._reserved_blocks += growth
        seq.context_tokens += 1
        seq.mapped_blocks = needed
        self._used_tokens += 1

    def lockstep_headroom(self, seq_ids: list[int], max_steps: int) -> int:
        """How many lockstep rounds of ``append_token`` over ``seq_ids``
        succeed before the first one that would raise (capped at
        ``max_steps``).

        Each append grows a sequence by at most one block, so round ``s``
        succeeds iff the blocks the sequences cross into by round ``s``
        fit the free pool and no non-growable sequence outgrows its
        reservation.  The crossing count is monotone in ``s``, so the
        answer is a binary search over O(len(seq_ids)) counts.
        """
        size = self.block_size
        free = self.free_blocks
        rows = []
        for seq_id in seq_ids:
            seq = self._require(seq_id)
            # Rounds before this sequence first needs a block it lacks.
            slack = seq.reserved_blocks * size - seq.context_tokens
            if seq.growable:
                rows.append(slack)
            elif slack < max_steps:
                max_steps = slack

        def crossings(steps: int) -> int:
            # Sequence with slack ``d`` has crossed ceil((steps - d) / size)
            # block boundaries after ``steps`` rounds (none while steps <= d).
            return sum(-((slack - steps) // size) for slack in rows if steps > slack)

        if crossings(max_steps) <= free:
            return max_steps
        lo, hi = 0, max_steps  # crossings(lo) <= free < crossings(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if crossings(mid) <= free:
                lo = mid
            else:
                hi = mid
        return lo

    def append_tokens(self, seq_ids: list[int], steps: int) -> None:
        """Grow every sequence in ``seq_ids`` by ``steps`` tokens: the same
        end state as ``steps`` lockstep rounds of :meth:`append_token`.

        Atomic: raises :class:`AllocationError` without mutating anything
        when those rounds would not all succeed (see
        :meth:`lockstep_headroom`).
        """
        if self.lockstep_headroom(seq_ids, steps) < steps:
            raise AllocationError(
                f"{len(seq_ids)} sequence(s) cannot grow {steps} token(s); "
                f"{self.free_blocks} block(s) free (preemption required)"
            )
        growth = 0
        for seq_id in seq_ids:
            seq = self._sequences[seq_id]
            seq.context_tokens += steps
            needed = self._blocks_for(seq.context_tokens)
            if needed > seq.reserved_blocks:
                growth += needed - seq.reserved_blocks
                seq.reserved_blocks = needed
            seq.mapped_blocks = needed
        self._reserved_blocks += growth
        self._used_tokens += steps * len(seq_ids)

    def free(self, seq_id: int) -> None:
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        self._reserved_blocks -= seq.reserved_blocks
        self._used_tokens -= seq.context_tokens
        if self.tracer.enabled:
            self._trace_pool("free")

    def context_tokens(self, seq_id: int) -> int:
        return self._require(seq_id).context_tokens

    @property
    def used_tokens(self) -> int:
        return self._used_tokens

    @property
    def mapped_tokens(self) -> int:
        """Tokens of capacity in mapped blocks (>= used_tokens)."""
        return sum(
            s.mapped_blocks * self.block_size for s in self._sequences.values()
        )

    @property
    def capacity_tokens(self) -> int:
        return self.total_blocks * self.block_size

    @property
    def internal_fragmentation_tokens(self) -> int:
        """Capacity wasted inside partially filled mapped blocks."""
        return self.mapped_tokens - self.used_tokens

    def _require(self, seq_id: int) -> _PagedSequence:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        return seq


@dataclass
class _ContiguousSequence:
    reserved_tokens: int
    context_tokens: int


class ContiguousKVAllocator(KVAllocator):
    """Whole-context up-front reservation (llama.cpp / Gaudi2 / SambaFlow)."""

    def __init__(self, capacity_tokens: int, tracer: Tracer = NULL_TRACER) -> None:
        if capacity_tokens < 1:
            raise ValueError(f"capacity_tokens must be >= 1, got {capacity_tokens}")
        self._capacity = capacity_tokens
        self.tracer = tracer
        self._reserved = 0
        self._used_tokens = 0  # running sum of context_tokens
        self._sequences: dict[int, _ContiguousSequence] = {}

    @property
    def free_tokens(self) -> int:
        return self._capacity - self._reserved

    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    def can_admit(self, final_context_tokens: int) -> bool:
        return final_context_tokens <= self.free_tokens

    def admit(self, seq_id: int, prompt_tokens: int, final_context_tokens: int) -> None:
        if seq_id in self._sequences:
            raise AllocationError(f"sequence {seq_id} already admitted")
        if prompt_tokens < 1 or final_context_tokens < prompt_tokens:
            raise ValueError("need 1 <= prompt_tokens <= final_context_tokens")
        if final_context_tokens > self.free_tokens:
            raise AllocationError(
                f"sequence {seq_id} needs {final_context_tokens} tokens, "
                f"{self.free_tokens} free"
            )
        self._sequences[seq_id] = _ContiguousSequence(
            reserved_tokens=final_context_tokens, context_tokens=prompt_tokens
        )
        self._reserved += final_context_tokens
        self._used_tokens += prompt_tokens
        if self.tracer.enabled:
            self._trace_pool("admit")

    def append_token(self, seq_id: int) -> None:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        if seq.context_tokens + 1 > seq.reserved_tokens:
            raise AllocationError(f"sequence {seq_id} grew past its reservation")
        seq.context_tokens += 1
        self._used_tokens += 1

    def free(self, seq_id: int) -> None:
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        self._reserved -= seq.reserved_tokens
        self._used_tokens -= seq.context_tokens
        if self.tracer.enabled:
            self._trace_pool("free")

    def context_tokens(self, seq_id: int) -> int:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        return seq.context_tokens

    @property
    def used_tokens(self) -> int:
        return self._used_tokens

    @property
    def capacity_tokens(self) -> int:
        return self._capacity
