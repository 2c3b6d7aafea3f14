"""Fat pointers that remember their intended referent.

Ruwase & Lam's extension to the Jones & Kelly scheme (the checker the paper
builds on) keeps out-of-bounds pointers usable by associating them with an
*out-of-bounds object* that records the unit the pointer was derived from.
:class:`FatPointer` captures the same idea directly: a pointer is a (data unit,
byte offset) pair, and the offset is allowed to wander outside ``[0, size)``.
Whether dereferencing such a pointer corrupts memory, terminates the program,
or is absorbed obliviously is decided by the active policy, not by the pointer.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Union

from repro.memory.data_unit import DataUnit, NULL_UNIT


class FatPointer:
    """A typed pointer into the simulated address space.

    Attributes
    ----------
    referent:
        The data unit the pointer was derived from.
    offset:
        Byte offset relative to the referent's base.  May be negative or past
        the end of the unit; such pointers are legal to hold (and compare) but
        dereferencing them is a memory error.

    Pointers are immutable values: equality and hashing are structural over
    ``(referent, offset)`` (the referent by identity), and assigning or
    deleting a field raises :class:`dataclasses.FrozenInstanceError`.  Every
    per-byte loop allocates one pointer per step (``cursor = cursor + 1``), so
    construction and arithmetic write the two slots straight through their
    descriptors, the one way past the frozen ``__setattr__``.
    """

    __slots__ = ("referent", "offset")

    referent: DataUnit
    offset: int

    def __init__(self, referent: DataUnit, offset: int = 0) -> None:
        _set_referent(self, referent)
        _set_offset(self, offset)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: the default slot-state protocol
        # would restore the fields with setattr, which is frozen.
        return FatPointer, (self.referent, self.offset)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FatPointer:
            return NotImplemented
        return self.referent is other.referent and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.referent, self.offset))

    # -- constructors -------------------------------------------------------------

    @classmethod
    def null(cls) -> "FatPointer":
        """Return the null pointer."""
        return cls(referent=NULL_UNIT, offset=0)

    @classmethod
    def to_unit(cls, unit: DataUnit, offset: int = 0) -> "FatPointer":
        """Return a pointer to ``unit`` at ``offset``."""
        return cls(referent=unit, offset=offset)

    # -- properties ---------------------------------------------------------------

    @property
    def address(self) -> int:
        """The raw address this pointer designates."""
        return self.referent.base + self.offset

    @property
    def is_null(self) -> bool:
        """True for the null pointer (and any pointer into the null unit)."""
        return self.referent is NULL_UNIT

    @property
    def in_bounds(self) -> bool:
        """True if dereferencing one byte here would be legal."""
        return self.referent.alive and self.referent.contains_offset(self.offset)

    def remaining(self) -> int:
        """Length of the contiguous safe span starting at this pointer.

        This is the in-bounds window query the bulk substrate paths are built
        on: the number of bytes that can be accessed from here without any
        policy intervention.  Zero for dead units and for pointers that start
        out of bounds (including negative offsets), so a positive return value
        guarantees ``[offset, offset + remaining())`` is entirely legal.
        """
        unit = self.referent
        if not unit.alive or not (0 <= self.offset < unit.size):
            return 0
        return unit.size - self.offset

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, delta: int) -> "FatPointer":
        """Pointer arithmetic: ``p + n`` moves ``n`` bytes forward."""
        moved = _new_pointer(FatPointer)
        _set_referent(moved, self.referent)
        _set_offset(moved, self.offset + delta)
        return moved

    def __sub__(self, other: Union[int, "FatPointer"]) -> Union["FatPointer", int]:
        """``p - n`` moves backwards; ``p - q`` yields the byte distance."""
        if isinstance(other, FatPointer):
            return self.address - other.address
        moved = _new_pointer(FatPointer)
        _set_referent(moved, self.referent)
        _set_offset(moved, self.offset - other)
        return moved

    def advance(self, delta: int = 1) -> "FatPointer":
        """Alias for ``self + delta`` that reads naturally in loops."""
        return self + delta

    # -- comparisons --------------------------------------------------------------
    #
    # C permits comparing pointers; the paper notes that Pine and Midnight
    # Commander even compare out-of-bounds pointers.  Comparisons are therefore
    # defined on raw addresses and never raise.

    def __lt__(self, other: "FatPointer") -> bool:
        return self.address < other.address

    def __le__(self, other: "FatPointer") -> bool:
        return self.address <= other.address

    def __gt__(self, other: "FatPointer") -> bool:
        return self.address > other.address

    def __ge__(self, other: "FatPointer") -> bool:
        return self.address >= other.address

    def same_unit(self, other: "FatPointer") -> bool:
        """True if both pointers were derived from the same data unit."""
        return self.referent is other.referent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "" if self.in_bounds else " OOB"
        return f"<FatPointer {self.referent.label()}+{self.offset}{marker}>"


_new_pointer = object.__new__
_set_referent = FatPointer.referent.__set__
_set_offset = FatPointer.offset.__set__
