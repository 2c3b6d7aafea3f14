"""The object table mapping addresses to data units (Jones & Kelly).

The CRED checker maintains a table of all live data units so that, given a
pointer value, it can recover which unit the pointer refers to and whether the
access stays in bounds.  This module provides that table as a sorted interval
map with O(log n) lookup.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.memory.data_unit import DataUnit, UnitKind, make_unit


@dataclass(frozen=True)
class UnitRecord:
    """Pure-data image of one :class:`~repro.memory.data_unit.DataUnit`.

    Checkpoints store records, not unit objects, so a checkpoint shares no
    mutable state with the live table: restoring (or cloning into another
    process image) rebuilds fresh units with identical fields — including the
    serial, which is deterministic per table (see :meth:`ObjectTable.next_serial`).
    Records are immutable, so successive checkpoints share them: the table
    builds one record per unit state (alive, then dead) and reuses it.
    """

    name: str
    base: int
    size: int
    kind: UnitKind
    owner: str
    serial: int
    alive: bool

    @classmethod
    def of(cls, unit: DataUnit) -> "UnitRecord":
        return cls(name=unit.name, base=unit.base, size=unit.size, kind=unit.kind,
                   owner=unit.owner, serial=unit.serial, alive=unit.alive)

    def build(self) -> DataUnit:
        unit = make_unit(name=self.name, base=self.base, size=self.size,
                         kind=self.kind, owner=self.owner, serial=self.serial)
        unit.alive = self.alive
        return unit


@dataclass(frozen=True)
class ObjectTableCheckpoint:
    """Immutable snapshot of the live units, the retired ring, and counters."""

    live: Tuple[UnitRecord, ...]
    retired: Tuple[UnitRecord, ...]
    lookups: int
    next_serial: int


#: How many dead units the table remembers for use-after-free attribution.
RETIRED_CAPACITY = 1024


class ObjectTable:
    """Interval map from addresses to live data units.

    Units are stored sorted by base address.  The table assumes units never
    overlap, which the allocator and call stack guarantee; this is asserted at
    registration time to catch substrate bugs early.
    """

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._units: List[DataUnit] = []
        #: Parallel to ``_units``: each live unit's record, or None until a
        #: checkpoint first needs it (records are never built on register).
        self._records: List[Optional[UnitRecord]] = []
        self._unrecorded_births = False
        #: Units that have been unregistered but are remembered so that
        #: use-after-free accesses can be attributed to the original unit.
        self._retired: Deque[DataUnit] = deque(maxlen=RETIRED_CAPACITY)
        #: Parallel to ``_retired`` (evicted in lockstep); the newest
        #: ``_unrecorded_deaths`` entries are None until a checkpoint.
        self._retired_records: Deque[Optional[UnitRecord]] = deque(
            maxlen=RETIRED_CAPACITY
        )
        self._unrecorded_deaths = 0
        #: Callbacks invoked whenever a unit dies (heap free *or* stack frame
        #: pop — unregister is the single definition of unit death).  Used by
        #: policies holding per-unit side state, e.g. the boundless store.
        self._death_hooks: List[Callable[[DataUnit], None]] = []
        self.lookups = 0
        self._serial_counter = 1

    def add_death_hook(self, hook: Callable[[DataUnit], None]) -> None:
        """Call ``hook(unit)`` every time a unit is unregistered."""
        self._death_hooks.append(hook)

    def next_serial(self) -> int:
        """Hand out the next per-table unit serial.

        The allocator and call stack draw serials here rather than from the
        module-global counter, so a process image that boots deterministically
        labels its units deterministically — two fresh boots (or a checkpoint
        restore and a from-scratch reboot) produce identical unit labels.
        """
        serial = self._serial_counter
        self._serial_counter += 1
        return serial

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[DataUnit]:
        return iter(self._units)

    def register(self, unit: DataUnit) -> DataUnit:
        """Add a live unit to the table."""
        index = bisect.bisect_left(self._bases, unit.base)
        if index < len(self._units) and self._units[index].base < unit.end:
            raise ValueError(
                f"unit {unit.label()} overlaps {self._units[index].label()}"
            )
        if index > 0 and self._units[index - 1].end > unit.base:
            raise ValueError(
                f"unit {unit.label()} overlaps {self._units[index - 1].label()}"
            )
        self._bases.insert(index, unit.base)
        self._units.insert(index, unit)
        self._records.insert(index, None)
        self._unrecorded_births = True
        return unit

    def unregister(self, unit: DataUnit) -> None:
        """Remove a unit (on free / frame pop) and mark it dead."""
        index = bisect.bisect_left(self._bases, unit.base)
        while index < len(self._units) and self._bases[index] == unit.base:
            if self._units[index] is unit:
                del self._bases[index]
                del self._units[index]
                del self._records[index]
                unit.alive = False
                self._retired.append(unit)
                self._retired_records.append(None)
                self._unrecorded_deaths += 1
                for hook in self._death_hooks:
                    hook(unit)
                return
            index += 1
        raise KeyError(f"unit {unit.label()} is not registered")

    def find(self, address: int) -> Optional[DataUnit]:
        """Return the live unit containing ``address``, or None.

        This is the per-access table lookup whose cost is the dominant source
        of the slowdown reported in the paper's performance figures.
        """
        self.lookups += 1
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        unit = self._units[index]
        # ``unit.base <= address`` holds by the bisect; only the end remains.
        if address < unit.base + unit.size:
            return unit
        return None

    def find_range(self, address: int, length: int) -> Optional[DataUnit]:
        """Return the live unit containing the whole range, or None."""
        unit = self.find(address)
        if unit is not None and unit.contains_address(address, max(length, 1)):
            return unit
        return None

    def find_retired(self, address: int) -> Optional[DataUnit]:
        """Return a dead unit that used to contain ``address`` (for UAF reporting)."""
        for unit in reversed(self._retired):
            if unit.contains_address(address):
                return unit
        return None

    def live_units(self) -> List[DataUnit]:
        """Return all live units ordered by base address."""
        return list(self._units)

    def total_live_bytes(self) -> int:
        """Return the number of bytes covered by live units."""
        return sum(unit.size for unit in self._units)

    def neighbours(self, unit: DataUnit) -> tuple:
        """Return the (previous, next) live units adjacent to ``unit`` by address."""
        index = bisect.bisect_left(self._bases, unit.base)
        prev_unit = self._units[index - 1] if index > 0 else None
        next_unit = self._units[index + 1] if index + 1 < len(self._units) else None
        return prev_unit, next_unit

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint(self) -> ObjectTableCheckpoint:
        """Snapshot the live units, the retired ring, and the counters.

        Equal to recording every live and retired unit afresh, but records
        are shared with earlier checkpoints: only units born or died since
        the last one get a record built, so the cost does not grow with the
        table's history.
        """
        if self._unrecorded_births:
            records, units = self._records, self._units
            for index, record in enumerate(records):
                if record is None:
                    records[index] = UnitRecord.of(units[index])
            self._unrecorded_births = False
        retired = self._retired
        pending = min(self._unrecorded_deaths, len(retired))
        if pending:
            retired_records = self._retired_records
            for index in range(len(retired) - pending, len(retired)):
                retired_records[index] = UnitRecord.of(retired[index])
        self._unrecorded_deaths = 0
        return ObjectTableCheckpoint(
            live=tuple(self._records),
            retired=tuple(self._retired_records),
            lookups=self.lookups,
            next_serial=self._serial_counter,
        )

    def restore(self, cp: ObjectTableCheckpoint) -> Dict[int, DataUnit]:
        """Rebuild the table from a checkpoint, returning live units by base.

        Fresh :class:`DataUnit` objects are constructed (a from-scratch reboot
        would construct fresh objects too); units registered after the
        checkpoint simply drop out, and death hooks do *not* fire — an image
        swap is not a program-visible unit death.  The returned mapping lets
        the allocator and call stack rewire their own references to the same
        rebuilt objects.  Each rebuilt unit keeps the record it was built
        from, so a checkpoint right after a restore builds no records.
        """
        self._units = [record.build() for record in cp.live]
        self._bases = [unit.base for unit in self._units]
        self._records = list(cp.live)
        self._unrecorded_births = False
        self._retired = deque([record.build() for record in cp.retired], RETIRED_CAPACITY)
        self._retired_records = deque(cp.retired, RETIRED_CAPACITY)
        self._unrecorded_deaths = 0
        self.lookups = cp.lookups
        self._serial_counter = cp.next_serial
        return {unit.base: unit for unit in self._units}
