"""Tests for fat pointers (Ruwase & Lam style intended referents)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.memory.data_unit import NULL_UNIT, UnitKind, make_unit
from repro.memory.pointer import FatPointer


def make_ptr(size=16, base=1000):
    unit = make_unit(name="buf", base=base, size=size, kind=UnitKind.HEAP)
    return FatPointer(unit)


class TestBasics:
    def test_address_combines_base_and_offset(self):
        ptr = make_ptr(base=1000)
        assert (ptr + 5).address == 1005

    def test_null_pointer(self):
        null = FatPointer.null()
        assert null.is_null
        assert null.referent is NULL_UNIT
        assert not null.in_bounds

    def test_in_bounds_inside(self):
        ptr = make_ptr(size=8)
        assert ptr.in_bounds
        assert (ptr + 7).in_bounds

    def test_in_bounds_false_at_end(self):
        ptr = make_ptr(size=8)
        assert not (ptr + 8).in_bounds

    def test_in_bounds_false_when_negative(self):
        ptr = make_ptr()
        assert not (ptr - 1).in_bounds

    def test_in_bounds_false_when_dead(self):
        ptr = make_ptr()
        ptr.referent.alive = False
        assert not ptr.in_bounds

    def test_remaining(self):
        ptr = make_ptr(size=10)
        assert (ptr + 3).remaining() == 7
        assert (ptr + 12).remaining() == 0
        assert (ptr - 2).remaining() == 0  # negative offsets have no safe span

    def test_remaining_zero_for_dead_unit(self):
        ptr = make_ptr(size=10)
        ptr.referent.alive = False
        assert ptr.remaining() == 0

    def test_to_unit_constructor(self):
        unit = make_unit(name="x", base=50, size=4, kind=UnitKind.STACK)
        assert FatPointer.to_unit(unit, 2).address == 52


class TestArithmetic:
    def test_addition_preserves_referent(self):
        ptr = make_ptr()
        moved = ptr + 100
        assert moved.referent is ptr.referent
        assert moved.offset == 100

    def test_subtraction_of_int(self):
        ptr = make_ptr()
        assert (ptr + 10 - 4).offset == 6

    def test_pointer_difference(self):
        ptr = make_ptr()
        assert (ptr + 10) - (ptr + 4) == 6

    def test_advance_alias(self):
        ptr = make_ptr()
        assert ptr.advance(3).offset == 3

    def test_out_of_bounds_pointers_are_representable(self):
        """Holding (not dereferencing) an OOB pointer is legal, as Pine/MC rely on."""
        ptr = make_ptr(size=4)
        way_out = ptr + 1000
        assert way_out.offset == 1000
        assert way_out.referent is ptr.referent


class TestComparisons:
    def test_ordering_by_address(self):
        ptr = make_ptr()
        assert ptr < ptr + 1
        assert ptr + 2 > ptr
        assert ptr <= ptr
        assert ptr >= ptr

    def test_comparison_across_units_uses_addresses(self):
        a = FatPointer(make_unit(name="a", base=100, size=4, kind=UnitKind.HEAP))
        b = FatPointer(make_unit(name="b", base=200, size=4, kind=UnitKind.HEAP))
        assert a < b

    def test_out_of_bounds_comparison_does_not_raise(self):
        """The paper §4.1 notes Pine and MC compare out-of-bounds pointers."""
        ptr = make_ptr(size=4)
        assert (ptr + 100) > ptr

    def test_same_unit(self):
        ptr = make_ptr()
        other = FatPointer(make_unit(name="o", base=5000, size=4, kind=UnitKind.HEAP))
        assert ptr.same_unit(ptr + 3)
        assert not ptr.same_unit(other)

    def test_equality_is_structural(self):
        ptr = make_ptr()
        assert ptr + 1 == ptr + 1
        assert ptr + 1 != ptr + 2


# -- value semantics (properties) ------------------------------------------------
#
# Pointers are values: handler-state snapshots deep-copy them, checkpoints
# pickle them, and the servers use them as dict keys.  These properties pin
# the semantics any representation of FatPointer must keep.

#: A small shared pool, so drawn pointers often share (or collide on) units.
UNITS = [
    make_unit(name=f"u{i}", base=base, size=size, kind=UnitKind.HEAP)
    for i, (base, size) in enumerate([(1000, 16), (1016, 8), (5000, 64), (1000, 16)])
]
offsets = st.integers(min_value=-300, max_value=300)
pointers = st.builds(FatPointer, st.sampled_from(UNITS), offsets)


class TestValueSemantics:
    @given(pointers, pointers)
    def test_equality_is_structural_and_agrees_with_hash(self, p, q):
        same = p.referent is q.referent and p.offset == q.offset
        assert (p == q) is same
        assert (p != q) is not same
        if p == q:
            assert hash(p) == hash(q)
        assert len({p, q, FatPointer(p.referent, p.offset)}) == (1 if same else 2)

    @given(pointers, offsets)
    def test_add_then_subtract_is_identity(self, p, n):
        assert (p + n) - n == p
        assert p.advance(n) == p + n
        assert (p + n).referent is p.referent

    @given(pointers, pointers)
    def test_ordering_follows_addresses(self, p, q):
        assert (p < q) is (p.address < q.address)
        assert (p <= q) is (p.address <= q.address)
        assert (p > q) is (p.address > q.address)
        assert (p >= q) is (p.address >= q.address)
        assert p - q == p.address - q.address

    @given(pointers)
    def test_pickle_round_trip(self, p):
        unit, q = pickle.loads(pickle.dumps((p.referent, p)))
        assert q.referent is unit
        assert q == FatPointer(unit, p.offset)
        assert (unit.label(), unit.base, unit.size, unit.alive) == (
            p.referent.label(), p.referent.base, p.referent.size, p.referent.alive
        )

    @given(pointers)
    def test_deepcopy_round_trip(self, p):
        unit, q = copy.deepcopy((p.referent, p))
        assert q.referent is unit and unit is not p.referent
        assert q == FatPointer(unit, p.offset)
        assert copy.copy(p) == p and copy.copy(p).referent is p.referent
        # A memo that maps the unit to itself keeps the referent shared.
        assert copy.deepcopy(p, {id(p.referent): p.referent}) == p

    @given(pointers, st.sampled_from(["referent", "offset"]))
    def test_fields_are_frozen(self, p, name):
        before = (p.referent, p.offset)
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
        assert (p.referent, p.offset) == before
