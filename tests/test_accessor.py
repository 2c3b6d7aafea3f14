"""Tests for the policy-mediated memory accessor — the heart of the mechanism."""

import pytest

from repro.core.policies import (
    BoundlessPolicy,
    RedirectPolicy,
)
from repro.errors import BoundsCheckViolation, ErrorKind, SegmentationFault, UseAfterFree
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer


class TestInBoundsAccess:
    def test_round_trip(self, fo_ctx):
        buf = fo_ctx.malloc(16)
        fo_ctx.mem.write(buf, b"hello world")
        assert fo_ctx.mem.read(buf, 11) == b"hello world"

    def test_round_trip_is_policy_independent(self, any_policy_name):
        from tests.conftest import POLICY_CLASSES

        ctx = MemoryContext(POLICY_CLASSES[any_policy_name]())
        buf = ctx.malloc(16)
        ctx.mem.write(buf + 4, b"abcd")
        assert ctx.mem.read(buf + 4, 4) == b"abcd"

    def test_byte_helpers(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_byte(buf + 3, 0x7E)
        assert fo_ctx.mem.read_byte(buf + 3) == 0x7E

    def test_int_helpers_signed(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_int(buf, -12345, size=4)
        assert fo_ctx.mem.read_int(buf, size=4, signed=True) == -12345

    def test_int_helpers_unsigned(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_int(buf, 0xDEADBEEF, size=4, signed=False)
        assert fo_ctx.mem.read_int(buf, size=4, signed=False) == 0xDEADBEEF

    def test_zero_length_operations(self, fo_ctx):
        buf = fo_ctx.malloc(4)
        assert fo_ctx.mem.read(buf, 0) == b""
        fo_ctx.mem.write(buf, b"")

    def test_read_unit_and_zero_unit(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"12345678")
        fo_ctx.mem.zero_unit(buf.referent)
        assert fo_ctx.mem.read_unit(buf.referent) == b"\x00" * 8


class TestFailureObliviousSemantics:
    def test_out_of_bounds_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        neighbour = fo_ctx.malloc(8)
        fo_ctx.mem.write(neighbour, b"AAAAAAAA")
        fo_ctx.mem.write(buf + 8, b"ZZZZ")
        assert fo_ctx.mem.read(neighbour, 8) == b"AAAAAAAA"

    def test_partial_overflow_writes_in_bounds_prefix(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf + 4, b"abcdefgh")
        assert fo_ctx.mem.read(buf + 4, 4) == b"abcd"

    def test_out_of_bounds_read_manufactures_paper_sequence(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        assert fo_ctx.mem.read(buf + 8, 3) == bytes([0, 1, 2])

    def test_partial_out_of_bounds_read_mixes_real_and_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"ABCDEFGH")
        data = fo_ctx.mem.read(buf + 6, 4)
        assert data[:2] == b"GH"
        assert data[2:] == bytes([0, 1])

    def test_negative_offset_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf - 4, b"XY")
        assert len(fo_ctx.error_log) == 1

    def test_null_pointer_read_manufactured(self, fo_ctx):
        value = fo_ctx.mem.read(FatPointer.null(), 2)
        assert len(value) == 2
        assert fo_ctx.error_log.events()[0].kind is ErrorKind.NULL_DEREF

    def test_use_after_free_read_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.free(buf)
        fo_ctx.mem.read(buf, 4)
        assert fo_ctx.error_log.events()[0].kind is ErrorKind.USE_AFTER_FREE

    def test_error_events_carry_site_and_request(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.set_site("test.site")
        fo_ctx.set_request(42)
        fo_ctx.mem.write(buf + 9, b"x")
        event = fo_ctx.error_log.events()[0]
        assert event.site == "test.site"
        assert event.request_id == 42

    def test_byte_fastpath_oob_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        other = fo_ctx.malloc(8)
        fo_ctx.mem.write_byte(buf + 8, 0x41)
        assert fo_ctx.mem.read_byte(other) != 0x41 or len(fo_ctx.error_log) == 1

    def test_byte_fastpath_oob_read_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        assert fo_ctx.mem.read_byte(buf + 100) in range(256)
        assert len(fo_ctx.error_log) == 1

    def test_checks_counted(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        before = fo_ctx.policy.stats.checks_performed
        fo_ctx.mem.read(buf, 4)
        fo_ctx.mem.write(buf, b"ab")
        assert fo_ctx.policy.stats.checks_performed == before + 2


class TestBoundsCheckSemantics:
    def test_oob_write_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.write(buf + 8, b"x")

    def test_oob_read_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.read(buf + 20, 1)

    def test_partial_overflow_still_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.write(buf + 4, b"abcdefgh")

    def test_use_after_free_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        bc_ctx.free(buf)
        with pytest.raises(UseAfterFree):
            bc_ctx.mem.read_byte(buf)

    def test_in_bounds_does_not_raise(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        bc_ctx.mem.write(buf, b"12345678")
        assert bc_ctx.mem.read(buf, 8) == b"12345678"


class TestStandardSemantics:
    def test_oob_write_corrupts_neighbouring_allocation(self, std_ctx):
        buf = std_ctx.malloc(8)
        neighbour = std_ctx.malloc(8)
        std_ctx.mem.write(neighbour, b"AAAAAAAA")
        distance = neighbour.address - buf.address
        std_ctx.mem.write(buf + distance, b"ZZZZ")
        assert std_ctx.mem.read(neighbour, 4) == b"ZZZZ"

    def test_far_oob_write_faults(self, std_ctx):
        buf = std_ctx.malloc(8)
        with pytest.raises(SegmentationFault):
            std_ctx.mem.write(buf + 100 * 1024 * 1024, b"x")

    def test_no_checks_counted(self, std_ctx):
        buf = std_ctx.malloc(8)
        std_ctx.mem.read(buf, 4)
        assert std_ctx.policy.stats.checks_performed == 0

    def test_no_events_logged_for_silent_corruption(self, std_ctx):
        buf = std_ctx.malloc(8)
        std_ctx.malloc(8)
        std_ctx.mem.write(buf + 8, b"Z")
        assert len(std_ctx.error_log) == 0


class TestVariantSemantics:
    def test_boundless_out_of_bounds_round_trip(self):
        ctx = MemoryContext(BoundlessPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf + 20, b"remember me")
        assert ctx.mem.read(buf + 20, 11) == b"remember me"

    def test_boundless_does_not_corrupt_neighbours(self):
        ctx = MemoryContext(BoundlessPolicy())
        buf = ctx.malloc(8)
        neighbour = ctx.malloc(8)
        ctx.mem.write(neighbour, b"BBBBBBBB")
        ctx.mem.write(buf + (neighbour.address - buf.address), b"XXXX")
        assert ctx.mem.read(neighbour, 8) == b"BBBBBBBB"

    def test_redirect_wraps_into_unit(self):
        ctx = MemoryContext(RedirectPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"01234567")
        ctx.mem.write_byte(buf + 9, ord("Z"))
        assert ctx.mem.read_byte(buf + 1) == ord("Z")

    def test_redirect_read_wraps(self):
        ctx = MemoryContext(RedirectPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"01234567")
        assert ctx.mem.read_byte(buf + 8) == ord("0")


class TestDecisionCache:
    """The per-accessor referent cache: hits skip the table bisect but keep
    every observable counter — and the cache can never outlive its unit."""

    def test_repeat_access_charges_one_check_and_lookup_each(self, fo_ctx):
        buf = fo_ctx.malloc(16)
        fo_ctx.mem.read(buf, 4)  # fill the cache
        assert fo_ctx.mem._cached_unit is buf.referent
        lookups_before = fo_ctx.table.lookups
        checks_before = fo_ctx.policy.stats.checks_performed
        fo_ctx.mem.read(buf, 4)
        fo_ctx.mem.write(buf + 8, b"zz")
        fo_ctx.mem.read_byte(buf + 1)
        fo_ctx.mem.write_byte(buf + 2, 7)
        # One check and one lookup per access, exactly as without the cache.
        assert fo_ctx.policy.stats.checks_performed == checks_before + 4
        assert fo_ctx.table.lookups == lookups_before + 4

    def test_cache_hit_still_detects_out_of_bounds(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"x")  # cache the unit
        neighbour = fo_ctx.malloc(8)
        canary = b"CANARY!!"
        fo_ctx.mem.write(neighbour, canary)
        fo_ctx.mem.write(buf + 8, b"overflow")  # cached unit, invalid offset
        assert fo_ctx.mem.read(neighbour, 8) == canary
        assert fo_ctx.error_log.total_recorded > 0

    def test_free_evicts_the_cached_unit(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"live")
        fo_ctx.free(buf)
        # A use-after-free must be classified as such, not served from cache.
        fo_ctx.mem.write(buf, b"dead")
        events = list(fo_ctx.error_log.events())
        assert events and events[-1].kind is ErrorKind.USE_AFTER_FREE

    def test_restore_invalidates_the_cache(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"pre")
        image = fo_ctx.checkpoint()
        fo_ctx.mem.write(buf, b"mid")
        fo_ctx.restore(image)
        assert fo_ctx.mem._cached_unit is None
        # Accesses after the restore behave exactly like a cold accessor.
        assert fo_ctx.mem.read(buf, 3) == b"pre"

    def test_cache_disabled_context_never_caches(self):
        from repro.core.policies import FailureObliviousPolicy

        ctx = MemoryContext(FailureObliviousPolicy(), decision_cache=False)
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"a")
        ctx.mem.read(buf, 1)
        assert ctx.mem._cached_unit is None

    def test_standard_policy_does_not_cache(self):
        from repro.core.policies import StandardPolicy

        ctx = MemoryContext(StandardPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"a")
        assert ctx.mem._cached_unit is None


class TestFusedBytePath:
    """The fused per-byte fast path against its unfused reference.

    ``write(ptr, 1 byte)`` / ``read(ptr, 1)`` take the span path: the policy
    check, the lookup charge, and then a separate call into
    :class:`AddressSpace`.  A twin context driven through them is the
    reference each scenario compares against — the byte accessors must
    fault, classify, count and mark dirty blocks exactly like it, on the
    unchecked build and on a checking one.
    """

    POLICIES = ("standard", "failure-oblivious")

    @staticmethod
    def _twins(policy_name):
        from tests.conftest import POLICY_CLASSES

        return [MemoryContext(POLICY_CLASSES[policy_name]()) for _ in range(2)]

    @staticmethod
    def _write(ctx, fused, ptr, value):
        if fused:
            ctx.mem.write_byte(ptr, value)
        else:
            ctx.mem.write(ptr, bytes([value]))

    @staticmethod
    def _read(ctx, fused, ptr):
        return ctx.mem.read_byte(ptr) if fused else ctx.mem.read(ptr, 1)[0]

    @staticmethod
    def _observe(ctx):
        return {
            "checks": ctx.policy.stats.as_dict(),
            "lookups": ctx.table.lookups,
            "raw": (ctx.space.raw_reads, ctx.space.raw_writes),
            "dirty": {s.name: sorted(s.dirty) for s in ctx.space.segments()},
            "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
            "events": [(e.kind, e.access, e.offset, e.length) for e in ctx.error_log.events()],
        }

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_access_after_restore_unmapped_the_segment_faults(self, policy_name):
        from repro.memory.data_unit import UnitKind, make_unit

        observed = []
        for fused, ctx in zip((True, False), self._twins(policy_name)):
            image = ctx.checkpoint()
            ctx.space.map_segment("scratch", 0x5000_0000, 4096)
            ptr = FatPointer(make_unit("scratch", 0x5000_0000, 64, UnitKind.GLOBAL), 3)
            self._write(ctx, fused, ptr, 0x41)
            # "scratch" is now the segment the byte paths probe first.
            assert self._read(ctx, fused, ptr) == 0x41
            ctx.restore(image)  # a cross-layout restore unmaps "scratch"
            with pytest.raises(SegmentationFault):
                self._write(ctx, fused, ptr, 0x42)
            with pytest.raises(SegmentationFault):
                self._read(ctx, fused, ptr)
            observed.append(self._observe(ctx))
        assert observed[0] == observed[1]

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_stale_pointer_after_free_and_same_base_malloc(self, policy_name):
        observed = []
        for fused, ctx in zip((True, False), self._twins(policy_name)):
            old = ctx.malloc(16)
            self._write(ctx, fused, old + 1, 0x11)  # caches the unit
            ctx.free(old)
            new = ctx.malloc(16)
            assert new.address == old.address and new.referent is not old.referent
            self._write(ctx, fused, old + 2, 0x22)  # use after free (or raw)
            self._write(ctx, fused, new + 3, 0x33)
            observed.append((
                self._read(ctx, fused, old + 2),
                self._read(ctx, fused, new + 3),
                self._observe(ctx),
            ))
        assert observed[0] == observed[1]
        if policy_name == "failure-oblivious":
            kinds = [kind for kind, *_ in observed[0][2]["events"]]
            assert kinds == [ErrorKind.USE_AFTER_FREE, ErrorKind.USE_AFTER_FREE]

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_delta_and_fast_restore_match_the_raw_byte_store(self, policy_name):
        """Dirty marks from the fused store equal a one-byte raw store's.

        The reference is :meth:`AddressSpace.write` over a one-byte range,
        which applies the dirty-block rule through :meth:`Segment.mark_dirty`.
        """
        fused_ctx, raw_ctx = self._twins(policy_name)
        offsets = (0, 1, 4095, 4096, 9000, 12287, 12288)
        results = []
        for ctx, store in (
            (fused_ctx, lambda ctx, ptr, v: ctx.mem.write_byte(ptr, v)),
            (raw_ctx, lambda ctx, ptr, v: ctx.space.write(ptr.address, bytes([v]))),
        ):
            buf = ctx.malloc(16384)
            ctx.checkpoint()
            for i, offset in enumerate(offsets):
                store(ctx, buf + offset, 0x60 + i)
            delta = ctx.delta_checkpoint().space
            image = ctx.checkpoint()
            for i, offset in enumerate(reversed(offsets)):
                store(ctx, buf + offset + 1, 0x70 + i)
            dirty = {s.name: sorted(s.dirty) for s in ctx.space.segments()}
            assert ctx.space.clean_epoch == image.space.epoch  # fast-path restore
            ctx.restore(image)
            results.append((
                delta.blocks,
                dirty,
                {s.name: bytes(s.data) for s in ctx.space.segments()},
                ctx.space.raw_writes,
            ))
        assert results[0] == results[1]
        assert dict(results[0][0])["heap"]  # the delta really captured the stores
