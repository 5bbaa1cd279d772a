"""The struct-of-arrays request table (repro.runtime.soa.RequestTable)
against a plain list-of-rows model under random operation sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.request import GenerationRequest
from repro.runtime.soa import RequestTable


class _Model:
    """The table's rows as Python lists, mirrored by ``running`` objects."""

    def __init__(self) -> None:
        self.rows: list[list[int]] = []  # [input, output, generated]
        self.running: list[GenerationRequest] = []

    def context_scan(self) -> int:
        return sum(inp + gen for inp, _, gen in self.rows)


def _check(table: RequestTable, model: _Model) -> None:
    assert table.n == len(model.rows)
    assert table.context_sum() == model.context_scan()
    for i, (_, _, gen) in enumerate(model.rows):
        assert table.generated_of(i) == gen
    if model.rows:
        assert table.min_remaining() == min(out - gen for _, out, gen in model.rows)
    finished = [i for i, (_, out, gen) in enumerate(model.rows) if gen >= out]
    assert table.finished_rows().tolist() == finished


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.integers(1, 5000),
            st.integers(1, 2000),
            st.floats(0.0, 1.0),
        ),
        st.tuples(st.just("sync_tail"), st.integers(0, 70), st.randoms()),
        st.tuples(st.just("commit_decode"), st.floats(0.0, 1.0)),
        st.tuples(st.just("commit_rider_chunk"), st.integers(0, 70)),
        st.tuples(st.just("drop"), st.integers(0, 70)),
        st.tuples(st.just("compact"), st.randoms()),
        st.tuples(st.just("clear")),
    ),
    max_size=80,
)


def _apply(table: RequestTable, model: _Model, op) -> None:
    kind = op[0]
    rows = model.rows
    n = len(rows)
    if kind == "append":
        _, inp, out, frac = op
        request = GenerationRequest(inp, out)
        request.generated_tokens = int(frac * (out - 1))
        table.append(request)
        model.running.append(request)
        rows.append([inp, out, request.generated_tokens])
    elif kind == "sync_tail":
        _, count, rng = op
        count = min(count, n)
        for i in range(n - count, n):
            # A prefill pass moved these requests on through the objects.
            request = model.running[i]
            request.generated_tokens = rng.randint(0, request.output_tokens)
            rows[i][2] = request.generated_tokens
        table.sync_tail(model.running, count)
    elif kind == "commit_decode":
        # The span rule: never more steps than the least remaining budget.
        owed = min((out - gen for _, out, gen in rows), default=0)
        if owed < 1:
            return
        steps = 1 + int(op[1] * (owed - 1))
        finished = table.commit_decode(steps)
        for row in rows:
            row[2] += steps
        assert finished.tolist() == [
            i for i, (_, out, gen) in enumerate(rows) if gen >= out
        ]
    elif kind == "commit_rider_chunk":
        count = min(op[1], n)
        given_, newly = table.commit_rider_chunk(count)
        want_given, want_newly = 0, []
        for i in range(count):
            _, out, gen = rows[i]
            if gen < out:
                rows[i][2] = gen + 1
                want_given += 1
                if gen + 1 >= out:
                    want_newly.append(i)
        assert given_ == want_given
        assert newly.tolist() == want_newly
    elif kind == "drop":
        if not n:
            return
        index = op[1] % n
        table.drop(index)
        del rows[index]
        del model.running[index]
    elif kind == "compact":
        keep = np.array([op[1].random() < 0.6 for _ in range(n)], dtype=bool)
        table.compact(keep)
        model.rows = [row for row, k in zip(rows, keep) if k]
        model.running = [r for r, k in zip(model.running, keep) if k]
    else:  # clear
        table.clear()
        model.rows, model.running = [], []


class TestRequestTable:
    @settings(max_examples=300, deadline=None)
    @given(ops=_ops)
    def test_context_sum_matches_scan_after_every_operation(self, ops):
        table, model = RequestTable(), _Model()
        for op in ops:
            _apply(table, model, op)
            _check(table, model)

    def test_grows_past_initial_capacity(self):
        table, model = RequestTable(), _Model()
        for i in range(200):
            _apply(table, model, ("append", 10 + i, 50, 0.5))
        _check(table, model)
        assert table.context_sum() == sum(10 + i + 24 for i in range(200))

    def test_drop_out_of_range_leaves_table_unchanged(self):
        table, model = RequestTable(), _Model()
        _apply(table, model, ("append", 100, 10, 0.0))
        with pytest.raises(IndexError):
            table.drop(1)
        _check(table, model)
