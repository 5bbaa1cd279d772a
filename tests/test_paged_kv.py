"""Tests for the KV allocators."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.paged_kv import (
    AllocationError,
    ContiguousKVAllocator,
    PagedKVAllocator,
)


class TestPagedAllocator:
    def test_capacity(self):
        alloc = PagedKVAllocator(total_blocks=10, block_size=16)
        assert alloc.capacity_tokens == 160
        assert alloc.free_blocks == 10

    def test_admit_reserves_final_context(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, prompt_tokens=20, final_context_tokens=100)
        # ceil(100/16) = 7 blocks reserved
        assert alloc.free_blocks == 3
        assert alloc.context_tokens(1) == 20

    def test_can_admit_respects_reservations(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 100)
        assert alloc.can_admit(48)  # 3 blocks
        assert not alloc.can_admit(64)  # 4 blocks > 3 free

    def test_append_within_reservation(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 12)
        alloc.append_token(1)
        alloc.append_token(1)
        assert alloc.context_tokens(1) == 12

    def test_append_past_reservation_raises(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 16, 16)
        with pytest.raises(AllocationError, match="reservation"):
            alloc.append_token(1)

    def test_free_returns_blocks(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 100)
        alloc.free(1)
        assert alloc.free_blocks == 10
        assert alloc.num_sequences == 0

    def test_double_admit_raises(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 20)
        with pytest.raises(AllocationError, match="already admitted"):
            alloc.admit(1, 10, 20)

    def test_free_unknown_raises(self):
        with pytest.raises(AllocationError, match="not admitted"):
            PagedKVAllocator(10, 16).free(42)

    def test_overcommit_raises(self):
        alloc = PagedKVAllocator(4, 16)
        with pytest.raises(AllocationError, match="blocks"):
            alloc.admit(1, 10, 100)

    def test_internal_fragmentation(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 17, 40)  # maps 2 blocks (32 tokens) for 17 tokens
        assert alloc.internal_fragmentation_tokens == 32 - 17
        for _ in range(15):
            alloc.append_token(1)
        assert alloc.internal_fragmentation_tokens == 0  # 32 of 32 used

    def test_used_tokens_tracks_contexts(self):
        alloc = PagedKVAllocator(20, 16)
        alloc.admit(1, 10, 40)
        alloc.admit(2, 20, 40)
        assert alloc.used_tokens == 30

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            PagedKVAllocator(0, 16)
        with pytest.raises(ValueError):
            PagedKVAllocator(10, 0)

    def test_validates_admit_args(self):
        alloc = PagedKVAllocator(10, 16)
        with pytest.raises(ValueError):
            alloc.admit(1, 0, 10)
        with pytest.raises(ValueError):
            alloc.admit(1, 20, 10)


def _state(alloc: PagedKVAllocator):
    return alloc.free_blocks, {
        seq_id: (s.context_tokens, s.reserved_blocks, s.mapped_blocks)
        for seq_id, s in alloc._sequences.items()
    }


def _lockstep_rounds(alloc: PagedKVAllocator, seq_ids, max_steps: int) -> int:
    """Reference: full rounds of per-token appends before one raises."""
    for done in range(max_steps):
        for seq_id in seq_ids:
            try:
                alloc.append_token(seq_id)
            except AllocationError:
                return done
    return max_steps


class TestLockstepGrowth:
    """``lockstep_headroom``/``append_tokens`` against per-token appends."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        total_blocks=st.integers(1, 48),
        block_size=st.integers(1, 20),
        max_steps=st.integers(0, 90),
    )
    def test_bulk_growth_equals_per_token_appends(
        self, data, total_blocks, block_size, max_steps
    ):
        alloc = PagedKVAllocator(total_blocks, block_size)
        for seq_id in range(data.draw(st.integers(1, 8))):
            prompt = data.draw(st.integers(1, 3 * block_size))
            final = prompt + data.draw(st.integers(0, 4 * block_size))
            optimistic = data.draw(st.booleans())
            reserve = prompt if optimistic else final
            if -(-reserve // block_size) > alloc.free_blocks:
                continue
            alloc.admit(seq_id, prompt, final, optimistic=optimistic)
            # Some sequences grow a little before the span starts.
            for _ in range(data.draw(st.integers(0, block_size))):
                try:
                    alloc.append_token(seq_id)
                except AllocationError:
                    break
        seq_ids = list(alloc._sequences)
        reference = copy.deepcopy(alloc)
        rounds = _lockstep_rounds(reference, seq_ids, max_steps)
        headroom = alloc.lockstep_headroom(seq_ids, max_steps)
        assert headroom == rounds
        # Committing the headroom in bulk lands on the per-token state.
        stepped = copy.deepcopy(alloc)
        for _ in range(headroom):
            for seq_id in seq_ids:
                stepped.append_token(seq_id)
        alloc.append_tokens(seq_ids, headroom)
        assert _state(alloc) == _state(stepped)
        assert alloc.used_tokens == stepped.used_tokens
        assert alloc.mapped_tokens == stepped.mapped_tokens
        # One step past the headroom is refused atomically.
        if headroom < max_steps:
            before = _state(alloc)
            with pytest.raises(AllocationError, match="preemption"):
                alloc.append_tokens(seq_ids, 1)
            assert _state(alloc) == before

    def test_headroom_counts_block_crossings(self):
        alloc = PagedKVAllocator(4, 16)
        alloc.admit(1, 10, 100, optimistic=True)  # crosses at steps 7, 23
        alloc.admit(2, 16, 100, optimistic=True)  # crosses at steps 1, 17
        assert alloc.free_blocks == 2
        assert alloc.lockstep_headroom([1, 2], 100) == 16
        assert alloc.lockstep_headroom([1, 2], 5) == 5
        assert alloc.lockstep_headroom([1], 100) == 38

    def test_conservative_sequence_caps_headroom(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 20)  # reserves 2 blocks: 22 appends fit
        assert alloc.lockstep_headroom([1], 50) == 22
        with pytest.raises(AllocationError):
            alloc.append_tokens([1], 23)

    def test_unknown_sequence_raises(self):
        alloc = PagedKVAllocator(10, 16)
        with pytest.raises(AllocationError, match="not admitted"):
            alloc.lockstep_headroom([7], 3)


def _used_tokens_scan(alloc) -> int:
    """Reference O(n) recomputation of ``used_tokens``."""
    return sum(seq.context_tokens for seq in alloc._sequences.values())


class TestUsedTokensCounter:
    """The running ``used_tokens`` count against a scan of the sequences,
    after every step of random admit / append / free sequences."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["admit", "append_token", "append_tokens", "free"]),
                st.integers(0, 5),  # sequence id
                st.integers(1, 40),  # prompt tokens / bulk steps
                st.integers(0, 40),  # growth budget beyond the prompt
                st.booleans(),  # optimistic admission
            ),
            max_size=60,
        ),
        block_size=st.integers(1, 16),
    )
    def test_paged_counter_matches_scan(self, ops, block_size):
        alloc = PagedKVAllocator(24, block_size)
        for op, seq_id, tokens, growth, optimistic in ops:
            try:
                if op == "admit":
                    alloc.admit(seq_id, tokens, tokens + growth, optimistic=optimistic)
                elif op == "append_token":
                    alloc.append_token(seq_id)
                elif op == "append_tokens":
                    alloc.append_tokens(list(alloc._sequences), tokens % 8)
                else:
                    alloc.free(seq_id)
            except AllocationError:
                pass
            assert alloc.used_tokens == _used_tokens_scan(alloc)

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["admit", "append_token", "free"]),
                st.integers(0, 5),
                st.integers(1, 40),
                st.integers(0, 40),
            ),
            max_size=60,
        ),
    )
    def test_contiguous_counter_matches_scan(self, ops):
        alloc = ContiguousKVAllocator(200)
        for op, seq_id, tokens, growth in ops:
            try:
                if op == "admit":
                    alloc.admit(seq_id, tokens, tokens + growth)
                elif op == "append_token":
                    alloc.append_token(seq_id)
                else:
                    alloc.free(seq_id)
            except AllocationError:
                pass
            assert alloc.used_tokens == _used_tokens_scan(alloc)


class TestContiguousAllocator:
    def test_reserves_full_context_up_front(self):
        alloc = ContiguousKVAllocator(100)
        alloc.admit(1, prompt_tokens=10, final_context_tokens=80)
        assert alloc.free_tokens == 20
        assert not alloc.can_admit(30)

    def test_earlier_oom_than_paged(self):
        """The Gaudi2/llama.cpp mechanism: same budget, fewer sequences."""
        paged = PagedKVAllocator(total_blocks=100 // 16, block_size=16)  # 96 tok
        contiguous = ContiguousKVAllocator(96)
        # Short prompts that will grow to 48: paged reserves 3 blocks each.
        paged.admit(1, 8, 48)
        paged.admit(2, 8, 48)
        contiguous.admit(1, 8, 48)
        contiguous.admit(2, 8, 48)
        assert paged.can_admit(48) == contiguous.can_admit(48) is False
        # But with ragged growth targets the contiguous allocator wastes
        # the full reservation while paged rounds to blocks only.
        assert contiguous.free_tokens == 0
        assert paged.free_blocks == 0

    def test_append_and_free(self):
        alloc = ContiguousKVAllocator(100)
        alloc.admit(1, 10, 12)
        alloc.append_token(1)
        alloc.append_token(1)
        with pytest.raises(AllocationError, match="reservation"):
            alloc.append_token(1)
        alloc.free(1)
        assert alloc.free_tokens == 100

    def test_used_vs_capacity(self):
        alloc = ContiguousKVAllocator(100)
        alloc.admit(1, 10, 50)
        assert alloc.used_tokens == 10
        assert alloc.capacity_tokens == 100

    def test_unknown_sequence_raises(self):
        alloc = ContiguousKVAllocator(100)
        with pytest.raises(AllocationError):
            alloc.append_token(9)
        with pytest.raises(AllocationError):
            alloc.context_tokens(9)

    def test_double_admit_raises(self):
        alloc = ContiguousKVAllocator(100)
        alloc.admit(1, 10, 20)
        with pytest.raises(AllocationError, match="already"):
            alloc.admit(1, 10, 20)
