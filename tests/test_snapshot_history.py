"""A delta snapshot's bookkeeping grows with what changed, not with history.

A long-running failure-oblivious server accumulates history: a full ring of
retired units (kept for use-after-free attribution) and a full error-log ring.
A snapshot taken after one more request must not re-record that history.  It
builds object-table records only for units born or died in that request, and
it retains only a small fixed amount of memory beyond its dirty-block payload:
the two rings are shared with the previous snapshot, not copied.

Deterministic: both bounds are counts, not timings.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.errorlog import MemoryErrorLog
from repro.harness.engine import ENGINE
from repro.memory.object_table import RETIRED_CAPACITY, UnitRecord
from repro.workloads.streams import mixed_stream

#: Memory a snapshot may keep beyond its dirty blocks.  It covers the two
#: shared rings' pointer tuples (1024 retired records and ~1000 error runs,
#: 8 bytes each), the per-request records and the small counter copies.
#: Re-recording the history instead retains well over 100 KiB.
RETAINED_LIMIT = 32 * 1024


@pytest.fixture(scope="module")
def seasoned_apache():
    """A failure-oblivious Apache after ~1,500 attack requests, rings full."""
    server = ENGINE.build_server("apache", "failure-oblivious", plant_attack=True)
    server.start()
    requests = mixed_stream("apache", total_requests=1501, attack_every=1).requests
    ctx = server.ctx
    ctx.checkpoint()
    for request in requests[:-1]:
        server.process(request)
    log = ctx.error_log
    assert len(ctx.table.checkpoint().retired) == RETIRED_CAPACITY
    assert len(log) == MemoryErrorLog().capacity and log.dropped > 0
    ctx.delta_checkpoint()  # the previous snapshot
    server.process(requests[-1])
    return server


def test_snapshot_records_only_units_born_or_died(seasoned_apache, monkeypatch):
    ctx = seasoned_apache.ctx
    server = seasoned_apache
    counts = {"changes": 0, "records": 0}
    for name in ("register", "unregister"):
        method = getattr(ctx.table, name)

        def counted(unit, _method=method):
            counts["changes"] += 1
            return _method(unit)

        monkeypatch.setattr(ctx.table, name, counted)
    original_of = UnitRecord.of

    def counting_of(cls, unit):
        counts["records"] += 1
        return original_of(unit)

    monkeypatch.setattr(UnitRecord, "of", classmethod(counting_of))
    server.process(mixed_stream("apache", total_requests=2, attack_every=1).requests[1])
    delta = ctx.delta_checkpoint()
    assert counts["changes"] > 0
    assert counts["records"] <= counts["changes"]
    monkeypatch.undo()
    assert delta.table.retired == tuple(UnitRecord.of(u) for u in ctx.table._retired)
    assert delta.table.live == tuple(UnitRecord.of(u) for u in ctx.table.live_units())


def test_snapshot_retains_little_beyond_its_dirty_blocks(seasoned_apache):
    server = seasoned_apache
    server.process(mixed_stream("apache", total_requests=2, attack_every=1).requests[1])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        delta = server.ctx.delta_checkpoint()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained - delta.space.payload_bytes < RETAINED_LIMIT
