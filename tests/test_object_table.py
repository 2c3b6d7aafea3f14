"""Tests for the Jones & Kelly object table."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.context import MemoryContext
from repro.memory.data_unit import UnitKind, make_unit
from repro.memory.object_table import (
    RETIRED_CAPACITY,
    ObjectTable,
    ObjectTableCheckpoint,
    UnitRecord,
)


def unit(base, size, name="u"):
    return make_unit(name=name, base=base, size=size, kind=UnitKind.HEAP)


class TestRegistration:
    def test_register_and_find(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        assert table.find(100) is u
        assert table.find(115) is u

    def test_find_outside_returns_none(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        assert table.find(116) is None
        assert table.find(99) is None

    def test_overlapping_registration_rejected(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        with pytest.raises(ValueError):
            table.register(unit(110, 16))
        with pytest.raises(ValueError):
            table.register(unit(90, 16))

    def test_adjacent_units_allowed(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        table.register(unit(116, 16))
        assert len(table) == 2

    def test_unregister_marks_dead_and_removes(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        table.unregister(u)
        assert table.find(100) is None
        assert not u.alive

    def test_unregister_unknown_raises(self):
        table = ObjectTable()
        with pytest.raises(KeyError):
            table.unregister(unit(100, 16))

    def test_retired_units_found_for_uaf_attribution(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        table.unregister(u)
        assert table.find_retired(105) is u

    def test_retired_lookup_prefers_the_newest_death(self):
        table = ObjectTable()
        older = table.register(unit(100, 16, "older"))
        table.unregister(older)
        newer = table.register(unit(100, 8, "newer"))
        table.unregister(newer)
        assert table.find_retired(104) is newer
        assert table.find_retired(110) is older

    def test_retired_ring_forgets_the_oldest_beyond_capacity(self):
        table = ObjectTable()
        extra = 5
        units = [table.register(unit(i * 16, 16, f"u{i}"))
                 for i in range(RETIRED_CAPACITY + extra)]
        for u in units:
            table.unregister(u)
        for i, u in enumerate(units):
            expected = None if i < extra else u
            assert table.find_retired(i * 16 + 3) is expected


class TestLookup:
    def test_find_range_fully_inside(self):
        table = ObjectTable()
        u = table.register(unit(100, 16))
        assert table.find_range(100, 16) is u
        assert table.find_range(110, 10) is None

    def test_lookup_counter_increments(self):
        table = ObjectTable()
        table.register(unit(100, 16))
        before = table.lookups
        table.find(100)
        table.find(200)
        assert table.lookups == before + 2

    def test_many_units_lookup_correctness(self):
        table = ObjectTable()
        units = [table.register(unit(i * 32, 16, name=f"u{i}")) for i in range(100)]
        for i, u in enumerate(units):
            assert table.find(i * 32 + 8) is u
            assert table.find(i * 32 + 20) is None

    def test_neighbours(self):
        table = ObjectTable()
        a = table.register(unit(0, 8, "a"))
        b = table.register(unit(16, 8, "b"))
        c = table.register(unit(32, 8, "c"))
        prev_unit, next_unit = table.neighbours(b)
        assert prev_unit is a and next_unit is c

    def test_total_live_bytes(self):
        table = ObjectTable()
        table.register(unit(0, 8))
        table.register(unit(16, 24))
        assert table.total_live_bytes() == 32

    def test_live_units_sorted_by_base(self):
        table = ObjectTable()
        table.register(unit(200, 8))
        table.register(unit(100, 8))
        bases = [u.base for u in table.live_units()]
        assert bases == sorted(bases)

    def test_iteration(self):
        table = ObjectTable()
        table.register(unit(100, 8))
        assert len(list(table)) == 1


def full_record(table: ObjectTable) -> ObjectTableCheckpoint:
    """Reference checkpoint: every live and retired unit recorded afresh."""
    return ObjectTableCheckpoint(
        live=tuple(UnitRecord.of(u) for u in table.live_units()),
        retired=tuple(UnitRecord.of(u) for u in table._retired),
        lookups=table.lookups,
        next_serial=table._serial_counter,
    )


_TABLE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(1, 96)),
        st.tuples(st.just("free"), st.integers(0, 63)),
        st.tuples(st.just("push"), st.integers(1, 64)),
        st.tuples(st.just("pop"), st.just(0)),
        # malloc + free pairs: enough of them wrap the retired ring.
        st.tuples(st.just("churn"), st.integers(1, 700)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.just("restore"), st.integers(0, 63)),
        st.tuples(st.just("clone"), st.integers(0, 63)),
    ),
    max_size=30,
)


class TestSharedCheckpoints:
    """Checkpoints share records across snapshots yet equal a full re-record."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_TABLE_OPS)
    @example(ops=[  # wraps the retired ring between checkpoints
        ("malloc", 24), ("churn", 700), ("checkpoint", 0), ("churn", 500),
        ("free", 0), ("push", 8), ("checkpoint", 0), ("restore", 0),
        ("churn", 30), ("clone", 1), ("pop", 0), ("checkpoint", 0),
    ])
    def test_checkpoint_equals_full_re_record_and_restores_round_trip(self, ops):
        ctx = MemoryContext()
        images = []
        for op, arg in ops:
            if op == "malloc":
                ctx.heap.malloc(arg)
            elif op == "free":
                heap = ctx.heap.live_allocations()
                if heap:
                    ctx.heap.free(heap[arg % len(heap)])
            elif op == "push":
                ctx.stack.push_frame("frame")
                ctx.stack.alloc_local("local", arg)
                ctx.stack.seal_frame()
            elif op == "pop":
                if ctx.stack.depth:
                    ctx.stack.pop_frame()
            elif op == "churn":
                for _ in range(arg):
                    ctx.heap.free(ctx.heap.malloc(8))
            elif op == "checkpoint":
                reference = full_record(ctx.table)
                image = ctx.checkpoint()
                assert image.table == reference
                images.append(image)
            elif images:
                image = images[arg % len(images)]
                if op == "clone":
                    ctx = MemoryContext()
                ctx.restore(image)
                again = ctx.table.checkpoint()
                assert again == image.table == full_record(ctx.table)
                # The rebuilt units kept their records: nothing was rebuilt.
                assert all(a is b for a, b in zip(again.live, image.table.live))
                assert all(a is b for a, b in zip(again.retired, image.table.retired))
        assert ctx.table.checkpoint() == full_record(ctx.table)
        for image in images:
            ctx.restore(image)
            assert ctx.table.checkpoint() == image.table

    def test_consecutive_checkpoints_share_unchanged_records(self):
        ctx = MemoryContext()
        for _ in range(20):
            ctx.heap.free(ctx.heap.malloc(16))
        kept = ctx.heap.malloc(32)
        first = ctx.table.checkpoint()
        ctx.heap.free(ctx.heap.malloc(8))
        second = ctx.table.checkpoint()
        assert second.live[0] is first.live[0]
        assert all(a is b for a, b in zip(first.retired, second.retired))
        assert len(second.retired) == len(first.retired) + 1
        ctx.heap.free(kept)
        third = ctx.table.checkpoint()
        assert third.live == ()
        assert third.retired[-1] == UnitRecord.of(kept)
        assert not third.retired[-1].alive and first.live[0].alive
